// Shared pieces of the end-to-end benchmark: timing, the machine-speed
// reference kernel, span recording, expected answers computed from the
// generated documents, and the result report.
#ifndef XARCH_E2E_BENCH_BENCH_H_
#define XARCH_E2E_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xml/node.h"

namespace xarch {
class Store;
class Client;
}  // namespace xarch

namespace xbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// A sample of one quantity; order statistics on demand.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The values from the `from`-th up to (not including) the `to`-th.
  Samples Between(size_t from, size_t to) const;

 private:
  std::vector<double> values_;
};

/// \brief The machine-speed reference: a fixed single-threaded kernel of
/// string-keyed map lookups and small-string work, run in short slices
/// between the measured operations. The median slice time of a phase of
/// the run against the nominal time gives the factor by which every timing
/// taken in that phase is corrected, so that a slower or busier machine
/// moves the reference and the program alike and the corrected figure
/// stays put. One instance per thread.
class Reference {
 public:
  /// Median slice time, in microseconds, on the machine the benchmark was
  /// calibrated on (README.md). Corrected timings are in that machine's
  /// units.
  static constexpr double kNominalUs = 15.0;

  Reference();
  /// Runs one slice and records its duration.
  void Slice();
  void Merge(const Reference& other) { slices_.Append(other.slices_); }
  double MedianUs() const { return slices_.Median(); }
  /// Median of the slices from the `from`-th up to the `to`-th.
  double MedianUs(size_t from, size_t to) const { return slices_.Between(from, to).Median(); }
  size_t slices() const { return slices_.size(); }

 private:
  std::map<std::string, uint32_t> table_;
  std::vector<std::string> suffixes_;
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
  uint64_t sink_ = 0;  ///< keeps the lookups observable
  Samples slices_;
};

/// \brief In-memory span recorder for the traced run. Spans are kept in
/// memory (thread-safe) and written as JSON lines when the run ends.
/// Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t parent;  ///< index of the enclosing span, -1 for none
    int thread;
    double start_us, end_us;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  Scope Open(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  /// Durations in ms of every span with this name.
  Samples DurationsMs(const std::string& name) const;
  size_t span_count() const;
  xarch::Status Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What a query asks for, and about which element.
enum class Kind { kPoint, kHistory, kRange, kRetrieve, kDiff };
inline constexpr int kKinds = 5;
const char* KindName(Kind kind);

struct Query {
  Kind kind = Kind::kPoint;
  std::string text;
  std::string id;        ///< the keyed element's key value
  xarch::Version a = 0;  ///< version (point, retrieve), first version
  xarch::Version b = 0;  ///< last version (range), second version (diff)
};

/// How the keyed elements the queries address sit in a document: the
/// container's path from the root, the element tag, and the key.
struct Shape {
  std::string root;           ///< "site"
  std::string container;      ///< child of the root holding the elements
  std::string element;        ///< "person"
  std::string key;            ///< "@id" (attribute) or "pac" (child text)
  /// The container's query path, "/site/people" (or "/ROOT" when the
  /// elements are children of the root: container empty).
  std::string ContainerPath() const;
  std::string ElementPath(const std::string& id) const;
};

Shape XMarkShape();
Shape SwissProtShape();

/// \brief Expected answers, computed from the generated documents apart
/// from the archive: per version, the key values present, a hash of each
/// element's canonical form, and a hash of the whole document's. The
/// canonical form ignores the order of siblings (the archive keeps keyed
/// siblings in its own order).
class Truth {
 public:
  explicit Truth(Shape shape) : shape_(std::move(shape)) {}
  const Shape& shape() const { return shape_; }

  /// Records version `versions()+1`. Thread-safe against the readers.
  void AddVersion(const xarch::xml::Node& root);
  xarch::Version versions() const;

  /// A uniformly drawn key present in version v.
  std::string PickId(xarch::Version v, xarch::Rng& rng) const;
  /// Builds a query of `kind` over versions 1..limit.
  Query MakeQuery(Kind kind, xarch::Version limit, xarch::Rng& rng) const;

  /// Checks an answer. For history, versions above `known` (the count
  /// committed before the query was sent) and up to `seen` (committed
  /// after it answered) may or may not be listed; every other version is
  /// exact. Returns an empty string when correct, else what is wrong.
  std::string Check(const Query& query, const std::string& answer,
                    xarch::Version known, xarch::Version seen) const;

 private:
  struct VersionTruth {
    std::unordered_map<std::string, uint64_t> elements;  ///< key -> hash
    std::vector<std::string> ids;                        ///< sorted keys
    uint64_t doc_hash = 0;
  };
  const VersionTruth& At(xarch::Version v) const;

  Shape shape_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<VersionTruth>> versions_;
};

/// Hash of the order-insensitive canonical form of `node`.
uint64_t CanonicalHash(const xarch::xml::Node& node);

/// \brief Verifies answers against a Truth, remembering the bytes of each
/// verified answer so a repeated query is checked by comparing bytes. One
/// per reading thread.
class Checker {
 public:
  explicit Checker(const Truth& truth) : truth_(truth) {}
  /// True when correct; the first error is kept.
  bool Check(const Query& query, const std::string& answer,
             xarch::Version known, xarch::Version seen);
  const std::string& first_error() const { return first_error_; }

 private:
  const Truth& truth_;
  std::unordered_map<std::string, uint64_t> verified_;
  std::string first_error_;
};

/// Runs a query in-process or over a connection.
class Reader {
 public:
  virtual ~Reader() = default;
  virtual xarch::Status Query(const std::string& text, std::string* out) = 0;
};
std::unique_ptr<Reader> LocalReader(xarch::Store& store);
std::unique_ptr<Reader> RemoteReader(xarch::Client& client);

/// The phases of a run. Each timing is corrected with the reference slices
/// of the phase it was taken in.
enum class Phase { kSetup, kLoop, kClosing };

/// \brief Everything one run measured, before correction.
struct Measures {
  double setup_s = 0;
  /// Reference slice counts at which the loop and the closing phase
  /// started (StartLoop, StartClosing); the set-up's slices come first.
  size_t loop_from = 0;
  size_t closing_from = SIZE_MAX;
  Phase ingest_phase = Phase::kLoop;   ///< where the ingest_ms samples come from
  Phase reopen_phase = Phase::kClosing;  ///< where the reopen_ms samples come from
  double ingest_bytes = 0;    ///< input XML archived by the timed appends
  Samples ingest_ms;          ///< one per timed append / INGEST
  double archive_bytes = 0;   ///< Stats().stored_bytes
  double disk_bytes = 0;      ///< bytes on disk after a clean checkpoint
  Samples reopen_ms;
  Samples latency_ms[kKinds]; ///< per query kind
  Samples reads_ms;           ///< every read (p99)
  /// The measured loop's operations by kind ("append", "reopen", a query
  /// kind's name), and the summed latency of each whole round of them.
  std::map<std::string, Samples> ops_ms;
  Samples round_ms;
  double round_acc_ms = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string error;
  void Fail(const std::string& what);
  /// Ends the set-up: records setup_s, from the process start.
  void StartLoop(Clock::time_point start, const Reference& ref) {
    setup_s = MsSince(start) / 1000;
    loop_from = ref.slices();
  }
  void StartClosing(const Reference& ref) { closing_from = ref.slices(); }
  /// Multiply a time taken in `phase` by this to correct it (divide a rate).
  double Factor(const Reference& ref, Phase phase) const;
  /// Records one operation of the measured loop.
  void Op(const std::string& kind, double ms) {
    ops_ms[kind].Add(ms);
    round_acc_ms += ms;
  }
  /// Closes a round of the measured loop.
  void EndRound() {
    round_ms.Add(round_acc_ms);
    round_acc_ms = 0;
  }
  /// Records one read of the measured loop.
  void Read(Kind kind, double ms) {
    latency_ms[static_cast<int>(kind)].Add(ms);
    reads_ms.Add(ms);
    Op(KindName(kind), ms);
  }
  /// Fails the run when |gap| exceeds `share` of `whole` (the traced run's
  /// independent-path totals).
  void HoldGap(const std::string& name, double gap, double whole, double share);
};

/// Per-layer figures from the traced run, by metric name.
using Layers = std::map<std::string, double>;

/// The per-layer metrics, (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Prints the human-readable report and the final JSON line.
void Report(const Args& args, const Measures& m, const Reference& ref,
            const Layers& layers);

/// Sum of the sizes of the regular files under `dir` (or the size of
/// `dir` when it is a file).
double DirBytes(const std::string& dir);
/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Workload entry points: fill `m` (and `layers` when tracing).
void RunCurate(const Args& args, Clock::time_point start, Reference& ref,
               Tracer& tracer, Measures& m, Layers& layers,
               const std::string& work);
void RunServe(const Args& args, Clock::time_point start, Reference& ref,
              Tracer& tracer, Measures& m, Layers& layers,
              const std::string& work);
void RunMixed(const Args& args, Clock::time_point start, Reference& ref,
              Tracer& tracer, Measures& m, Layers& layers,
              const std::string& work);
void RunSharded(const Args& args, Clock::time_point start, Reference& ref,
                Tracer& tracer, Measures& m, Layers& layers,
                const std::string& work);

}  // namespace xbench

#endif  // XARCH_E2E_BENCH_BENCH_H_
