#include "layers.h"

#include <cstdio>
#include <cstdlib>

#include "index/archive_index.h"
#include "keys/annotate.h"
#include "query/parser.h"
#include "query/planner.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xbench {

namespace {
void Require(const xarch::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}
}  // namespace

IngestProbe::IngestProbe(const char* spec_text, xarch::vfs::Vfs* vfs,
                         const std::string& wal_path, Tracer& tracer)
    : tracer_(tracer), vfs_(vfs), wal_path_(wal_path) {
  auto spec = xarch::keys::ParseKeySpecSet(spec_text);
  Require(spec.status(), "key spec");
  spec_ = std::move(spec).value();
  auto archive_spec = xarch::keys::ParseKeySpecSet(spec_text);
  archive_ = std::make_unique<xarch::core::Archive>(std::move(archive_spec).value());
  auto wal = xarch::persist::IngestLogWriter::Open(
      vfs_, wal_path, xarch::persist::FsyncPolicy::kEveryRecord);
  Require(wal.status(), "probe log");
  wal_ = std::move(wal).value();
}

double IngestProbe::Observe(std::string_view text, bool with_wal) {
  bytes_ += static_cast<double>(text.size());
  const auto t0 = Clock::now();
  auto doc = [&] {
    auto span = tracer_.Open("xml::Parse");
    return xarch::xml::Parse(text);
  }();
  const auto t1 = Clock::now();
  Require(doc.status(), "probe parse");
  {
    auto span = tracer_.Open("keys::AnnotateKeys");
    Require(xarch::keys::AnnotateKeys(**doc, spec_).status(), "probe annotate");
  }
  const auto t2 = Clock::now();
  {
    auto span = tracer_.Open("core::Archive::AddVersion");
    Require(archive_->AddVersion(**doc), "probe merge");
  }
  const auto t3 = Clock::now();
  {
    auto span = tracer_.Open("index::ArchiveIndex");
    xarch::index::ArchiveIndex index(*archive_);
  }
  const auto t4 = Clock::now();
  {
    auto span = tracer_.Open("persist::IngestLogWriter::Append");
    xarch::persist::LogRecord record;
    record.first_version = archive_->version_count();
    record.texts.emplace_back(text);
    Require(wal_.Append(record), "probe log append");
  }
  const auto t5 = Clock::now();
  {
    auto span = tracer_.Open("xml::Serialize");
    serialized_bytes_ += xarch::xml::Serialize(**doc).size();
  }
  const auto t6 = Clock::now();
  parse_ms_.Add(MsBetween(t0, t1));
  annotate_ms_.Add(MsBetween(t1, t2));
  merge_ms_.Add(MsBetween(t2, t3));
  index_ms_.Add(MsBetween(t3, t4));
  wal_ms_.Add(MsBetween(t4, t5));
  serialize_ms_.Add(MsBetween(t5, t6));
  auto size = vfs_->FileSize(wal_path_);
  if (size.ok()) wal_bytes_ = static_cast<double>(*size);
  return MsBetween(t0, t1) + MsBetween(t2, t4) + (with_wal ? MsBetween(t4, t5) : 0);
}

void IngestProbe::Fill(Layers& layers) const {
  const double mb = bytes_ / 1e6;
  SetRatio(layers, "xml.parse_ms_per_mb", parse_ms_.Sum(), mb);
  SetRatio(layers, "xml.serialize_ms_per_mb", serialize_ms_.Sum(), mb);
  SetRatio(layers, "keys.annotate_ms_per_mb", annotate_ms_.Sum(), mb);
  layers["core.merge_ms_per_version"] = merge_ms_.Median();
  layers["index.build_ms"] = index_ms_.Median();
  layers["persist.wal_append_ms"] = wal_ms_.Median();
  SetRatio(layers, "persist.wal_bytes_per_input_byte", wal_bytes_, bytes_);
}

void QueryProbe::Observe(const std::string& text) {
  const auto t0 = Clock::now();
  auto ast = [&] {
    auto span = tracer_.Open("query::Parse");
    return xarch::query::Parse(text);
  }();
  const auto t1 = Clock::now();
  Require(ast.status(), "probe query parse");
  {
    auto span = tracer_.Open("query::MakePlan");
    auto plan = xarch::query::MakePlan(std::move(ast).value(),
                                       xarch::query::Access::kArchiveIndexed);
    planned_steps_ += plan.step_notes.size();
  }
  const auto t2 = Clock::now();
  parse_us_.Add(MsBetween(t0, t1) * 1000);
  plan_us_.Add(MsBetween(t1, t2) * 1000);
}

void QueryProbe::Fill(Layers& layers) const {
  layers["query.parse_us"] = parse_us_.Median();
  layers["query.plan_us"] = plan_us_.Median();
}

void SetRatio(Layers& layers, const std::string& name, double part, double whole) {
  layers[name] = whole > 0 ? part / whole : 0;
}

}  // namespace xbench
