// Traced-run helpers: the ingest layers driven directly on a shadow
// archive, and the query front end driven directly on the query texts.
#ifndef XARCH_E2E_BENCH_LAYERS_H_
#define XARCH_E2E_BENCH_LAYERS_H_

#include <memory>
#include <string>
#include <string_view>

#include "bench.h"
#include "core/archive.h"
#include "keys/key_spec.h"
#include "persist/log.h"
#include "vfs/vfs.h"

namespace xbench {

/// \brief Calls each ingest layer's public function on the same documents
/// a store ingests — xml::Parse, keys::AnnotateKeys,
/// core::Archive::AddVersion, the index::ArchiveIndex build,
/// persist::IngestLogWriter::Append (fsync per record) and xml::Serialize —
/// with a span around each, so their sum can be held against
/// Store::Append for the same document.
class IngestProbe {
 public:
  /// `wal_path` is a scratch log, written through `vfs` with an fsync per
  /// record, as the durable store writes its own log.
  IngestProbe(const char* spec_text, xarch::vfs::Vfs* vfs, const std::string& wal_path,
              Tracer& tracer);

  /// Runs the layers on one document; returns parse + merge + index build
  /// (+ WAL append when `with_wal`) in ms. Annotation nests inside the
  /// merge, so it is timed apart and not added.
  double Observe(std::string_view text, bool with_wal);

  /// Adds the xml/keys/core/index/persist layer metrics.
  void Fill(Layers& layers) const;

 private:
  Tracer& tracer_;
  xarch::vfs::Vfs* vfs_;
  xarch::keys::KeySpecSet spec_;
  std::unique_ptr<xarch::core::Archive> archive_;
  xarch::persist::IngestLogWriter wal_;
  std::string wal_path_;
  double bytes_ = 0, wal_bytes_ = 0;
  size_t serialized_bytes_ = 0;
  Samples parse_ms_, annotate_ms_, merge_ms_, index_ms_, wal_ms_, serialize_ms_;
};

/// \brief Parses and plans query texts directly (query::Parse and
/// query::MakePlan), with a span around each.
class QueryProbe {
 public:
  explicit QueryProbe(Tracer& tracer) : tracer_(tracer) {}
  void Observe(const std::string& text);
  void Fill(Layers& layers) const;

 private:
  Tracer& tracer_;
  Samples parse_us_, plan_us_;
  size_t planned_steps_ = 0;
};

/// Sets `name` to `part` / `whole` (0 when `whole` is 0).
void SetRatio(Layers& layers, const std::string& name, double part, double whole);

}  // namespace xbench

#endif  // XARCH_E2E_BENCH_LAYERS_H_
