#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "client/client.h"
#include "xarch/store.h"
#include "xml/parser.h"

namespace xbench {

using xarch::Status;
using xarch::Version;

// ------------------------------------------------------------- Samples

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}


Samples Samples::Between(size_t from, size_t to) const {
  Samples out;
  for (size_t i = from; i < to && i < values_.size(); ++i) out.Add(values_[i]);
  return out;
}

// ----------------------------------------------------------- Reference

Reference::Reference() {
  // Fixed contents, independent of the seed: the kernel does the same work
  // on every run and every commit.
  for (int i = 0; i < 64; ++i) suffixes_.push_back("-s" + std::to_string(i * 7));
  for (uint32_t i = 0; i < 4096; ++i) {
    table_.emplace("key-" + std::to_string(i) + suffixes_[i % 64], i);
  }
}

void Reference::Slice() {
  // The same 48 keys three times; only the last two passes are timed, so
  // the slice measures the machine's speed on warm data and not how much
  // of the cache the operation before it evicted.
  uint64_t keys[48];
  for (uint64_t& k : keys) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    k = (state_ >> 33) % 4096;
  }
  std::string key;
  Clock::time_point t0;
  for (int pass = 0; pass < 3; ++pass) {
    if (pass == 1) t0 = Clock::now();
    for (uint64_t n : keys) {
      key = "key-";
      key += std::to_string(n);
      key += suffixes_[n % 64];
      auto it = table_.find(key);
      sink_ += it == table_.end() ? 1 : it->second + key.size();
    }
  }
  slices_.Add(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
}

// -------------------------------------------------------------- Tracer

namespace {
thread_local int64_t current_span = -1;
int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local int mine = next.fetch_add(1);
  return mine;
}
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - tracer_->origin_).count();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, current_span, ThreadNumber(), now, now});
  saved_parent_ = current_span;
  current_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - tracer_->origin_).count();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end_us = now;
  current_span = saved_parent_;
}

Samples Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.Add((s.end_us - s.start_us) / 1000.0);
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%lld,\"thread\":%d,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, static_cast<long long>(s.parent), s.thread,
                  s.name.c_str(), s.start_us, s.end_us);
    out << line;
  }
  out.close();
  if (!out) return Status::IoError("cannot write trace " + path);
  return Status::OK();
}

// --------------------------------------------------------------- Shape

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPoint: return "point";
    case Kind::kHistory: return "history";
    case Kind::kRange: return "range";
    case Kind::kRetrieve: return "retrieve";
    case Kind::kDiff: return "diff";
  }
  return "unknown";
}

Shape XMarkShape() { return {"site", "people", "person", "@id"}; }
Shape SwissProtShape() { return {"ROOT", "", "Record", "pac"}; }

std::string Shape::ContainerPath() const {
  return "/" + root + (container.empty() ? "" : "/" + container);
}

std::string Shape::ElementPath(const std::string& id) const {
  return ContainerPath() + "/" + element + "[" + key + "=\"" + id + "\"]";
}

// --------------------------------------------------------------- Truth

namespace {

void CanonicalInto(const xarch::xml::Node& node, std::string* out) {
  if (node.is_text()) {
    out->push_back('\x01');
    *out += node.text();
    return;
  }
  out->push_back('<');
  *out += node.tag();
  auto attrs = node.attrs();
  std::sort(attrs.begin(), attrs.end());
  for (const auto& [k, v] : attrs) {
    out->push_back('\x02');
    *out += k;
    out->push_back('=');
    *out += v;
  }
  std::vector<std::string> kids;
  kids.reserve(node.children().size());
  for (const auto& child : node.children()) {
    kids.emplace_back();
    CanonicalInto(*child, &kids.back());
  }
  std::sort(kids.begin(), kids.end());
  for (const std::string& k : kids) *out += k;
  out->push_back('>');
}

uint64_t HashBytes(std::string_view s) { return std::hash<std::string_view>()(s); }

std::string KeyOf(const xarch::xml::Node& element, const std::string& key) {
  if (key[0] == '@') {
    for (const auto& [k, v] : element.attrs()) {
      if (k == key.substr(1)) return v;
    }
    return "";
  }
  for (const auto& child : element.children()) {
    if (child->is_element() && child->tag() == key &&
        child->children().size() == 1 && child->children()[0]->is_text()) {
      return child->children()[0]->text();
    }
  }
  return "";
}

/// Parses "a-b,c" (VersionSet::ToString) into versions.
bool ParseVersionList(std::string_view text, std::vector<Version>* out) {
  size_t i = 0;
  while (i < text.size()) {
    size_t j = text.find(',', i);
    if (j == std::string_view::npos) j = text.size();
    std::string part(text.substr(i, j - i));
    const size_t dash = part.find('-');
    char* end = nullptr;
    const unsigned long lo = std::strtoul(part.c_str(), &end, 10);
    unsigned long hi = lo;
    if (dash != std::string::npos) hi = std::strtoul(part.c_str() + dash + 1, &end, 10);
    if (lo == 0 || hi < lo) return false;
    for (unsigned long v = lo; v <= hi; ++v) out->push_back(static_cast<Version>(v));
    i = j + 1;
  }
  return true;
}

}  // namespace

uint64_t CanonicalHash(const xarch::xml::Node& node) {
  std::string canon;
  CanonicalInto(node, &canon);
  return HashBytes(canon);
}

void Truth::AddVersion(const xarch::xml::Node& root) {
  auto vt = std::make_unique<VersionTruth>();
  vt->doc_hash = CanonicalHash(root);
  const xarch::xml::Node* container = &root;
  if (!shape_.container.empty()) {
    container = nullptr;
    for (const auto& child : root.children()) {
      if (child->is_element() && child->tag() == shape_.container) {
        container = child.get();
      }
    }
  }
  if (container != nullptr) {
    for (const auto& child : container->children()) {
      if (!child->is_element() || child->tag() != shape_.element) continue;
      std::string id = KeyOf(*child, shape_.key);
      vt->elements.emplace(id, CanonicalHash(*child));
      vt->ids.push_back(std::move(id));
    }
  }
  std::sort(vt->ids.begin(), vt->ids.end());
  std::lock_guard<std::mutex> lock(mu_);
  versions_.push_back(std::move(vt));
}

Version Truth::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<Version>(versions_.size());
}

const Truth::VersionTruth& Truth::At(Version v) const {
  std::lock_guard<std::mutex> lock(mu_);
  return *versions_.at(v - 1);
}

std::string Truth::PickId(Version v, xarch::Rng& rng) const {
  const VersionTruth& vt = At(v);
  return vt.ids[rng.Uniform(0, vt.ids.size() - 1)];
}

Query Truth::MakeQuery(Kind kind, Version limit, xarch::Rng& rng) const {
  Query q;
  q.kind = kind;
  switch (kind) {
    case Kind::kPoint:
      q.a = static_cast<Version>(rng.Uniform(1, limit));
      q.id = PickId(q.a, rng);
      q.text = shape_.ElementPath(q.id) + " @ version " + std::to_string(q.a);
      break;
    case Kind::kHistory:
      q.id = PickId(static_cast<Version>(rng.Uniform(1, limit)), rng);
      q.text = shape_.ElementPath(q.id) + " history";
      break;
    case Kind::kRange:
      q.a = static_cast<Version>(rng.Uniform(1, limit - 7));
      q.b = q.a + 7;
      q.id = PickId(q.a, rng);
      q.text = shape_.ElementPath(q.id) + " @ versions " + std::to_string(q.a) +
               ".." + std::to_string(q.b);
      break;
    case Kind::kRetrieve:
      q.a = static_cast<Version>(rng.Uniform(1, limit));
      q.text = "/" + shape_.root + " @ version " + std::to_string(q.a);
      break;
    case Kind::kDiff:
      q.a = static_cast<Version>(rng.Uniform(1, limit - 1));
      q.b = q.a + 1;
      q.text = shape_.ContainerPath() + " diff " + std::to_string(q.a) + " " +
               std::to_string(q.b);
      break;
  }
  return q;
}

std::string Truth::Check(const Query& q, const std::string& answer,
                         Version known, Version seen) const {
  auto parse = [](const std::string& text) { return xarch::xml::Parse(text); };
  switch (q.kind) {
    case Kind::kPoint: {
      auto doc = parse(answer);
      if (!doc.ok()) return "point answer does not parse";
      const auto& el = At(q.a).elements;
      auto it = el.find(q.id);
      if (it == el.end() || CanonicalHash(**doc) != it->second) {
        return "point answer differs from the generated element";
      }
      return "";
    }
    case Kind::kRange: {
      auto doc = parse("<r>" + answer + "</r>");
      if (!doc.ok()) return "range answer does not parse";
      Version expect = q.a;
      for (const auto& child : (*doc)->children()) {
        if (!child->is_element() || child->tag() != "version") continue;
        if (KeyOf(*child, "@n") != std::to_string(expect)) {
          return "range answer out of version order";
        }
        const auto& el = At(expect).elements;
        auto it = el.find(q.id);
        const size_t kids = child->children().size();
        if (it == el.end() ? kids != 0
                           : kids != 1 || CanonicalHash(*child->children()[0]) !=
                                              it->second) {
          return "range answer differs from the point answers";
        }
        ++expect;
      }
      if (expect != q.b + 1) return "range answer misses versions";
      return "";
    }
    case Kind::kRetrieve: {
      auto doc = parse(answer);
      if (!doc.ok()) return "retrieved version does not parse";
      if (CanonicalHash(**doc) != At(q.a).doc_hash) {
        return "retrieved version differs from the generated document";
      }
      return "";
    }
    case Kind::kHistory: {
      const size_t colon = answer.rfind(": ");
      std::string list = colon == std::string::npos ? "" : answer.substr(colon + 2);
      while (!list.empty() && (list.back() == '\n' || list.back() == ' ')) list.pop_back();
      std::vector<Version> got;
      if (!ParseVersionList(list, &got)) return "history answer does not parse";
      std::vector<bool> listed(seen + 2, false);
      for (Version v : got) {
        if (v > seen) return "history lists a version not yet committed";
        listed[v] = true;
      }
      for (Version v = 1; v <= seen; ++v) {
        const bool present = At(v).elements.count(q.id) != 0;
        if (v <= known ? listed[v] != present : listed[v] && !present) {
          return "history differs at version " + std::to_string(v);
        }
      }
      return "";
    }
    case Kind::kDiff: {
      const VersionTruth& from = At(q.a);
      const VersionTruth& to = At(q.b);
      std::vector<std::string> added, removed;
      std::set_difference(to.ids.begin(), to.ids.end(), from.ids.begin(),
                          from.ids.end(), std::back_inserter(added));
      std::set_difference(from.ids.begin(), from.ids.end(), to.ids.begin(),
                          to.ids.end(), std::back_inserter(removed));
      const std::string prefix = shape_.ContainerPath() + "/" + shape_.element +
                                 "{" + shape_.key + "=";
      std::vector<std::string> got_added, got_removed;
      size_t i = 0;
      while (i < answer.size()) {
        size_t j = answer.find('\n', i);
        if (j == std::string::npos) j = answer.size();
        std::string_view line(answer.data() + i, j - i);
        i = j + 1;
        if (line.size() < 3 || line.substr(2, prefix.size()) != prefix ||
            line.back() != '}') {
          continue;
        }
        std::string id(line.substr(2 + prefix.size(), line.size() - 3 - prefix.size()));
        if (id.find('}') != std::string::npos) continue;  // a deeper path
        (line[0] == '+' ? got_added : got_removed).push_back(id);
      }
      std::sort(got_added.begin(), got_added.end());
      std::sort(got_removed.begin(), got_removed.end());
      if (got_added != added || got_removed != removed) {
        return "diff person lines differ from the generated documents";
      }
      return "";
    }
  }
  return "unknown query kind";
}

// ------------------------------------------------------------- Checker

bool Checker::Check(const Query& query, const std::string& answer,
                    Version known, Version seen) {
  // History answers change as versions land; everything else is fixed.
  const bool memo = query.kind != Kind::kHistory;
  const uint64_t h = HashBytes(answer);
  if (memo) {
    auto it = verified_.find(query.text);
    if (it != verified_.end() && it->second == h) return true;
  }
  std::string error = truth_.Check(query, answer, known, seen);
  if (!error.empty()) {
    if (first_error_.empty()) first_error_ = query.text + ": " + error;
    return false;
  }
  if (memo) verified_[query.text] = h;
  return true;
}

// -------------------------------------------------------------- Readers

namespace {

class LocalReaderImpl final : public Reader {
 public:
  explicit LocalReaderImpl(xarch::Store& store) : store_(store) {}
  Status Query(const std::string& text, std::string* out) override {
    xarch::StringSink sink;
    Status st = store_.Query(text, sink);
    *out = std::move(sink).Take();
    return st;
  }

 private:
  xarch::Store& store_;
};

class RemoteReaderImpl final : public Reader {
 public:
  explicit RemoteReaderImpl(xarch::Client& client) : client_(client) {}
  Status Query(const std::string& text, std::string* out) override {
    xarch::StringSink sink;
    Status st = client_.Query(text, sink);
    *out = std::move(sink).Take();
    return st;
  }

 private:
  xarch::Client& client_;
};

}  // namespace

std::unique_ptr<Reader> LocalReader(xarch::Store& store) {
  return std::make_unique<LocalReaderImpl>(store);
}
std::unique_ptr<Reader> RemoteReader(xarch::Client& client) {
  return std::make_unique<RemoteReaderImpl>(client);
}

// -------------------------------------------------------------- Report

void Measures::Fail(const std::string& what) {
  if (correct) error = what;
  correct = false;
}

double Measures::Factor(const Reference& ref, Phase phase) const {
  const size_t end = std::min(closing_from, ref.slices());
  const double us = phase == Phase::kSetup  ? ref.MedianUs(0, loop_from)
                    : phase == Phase::kLoop ? ref.MedianUs(loop_from, end)
                                            : ref.MedianUs(end, ref.slices());
  return Reference::kNominalUs / us;
}

void Measures::HoldGap(const std::string& name, double gap, double whole,
                       double share) {
  if (std::fabs(gap) <= share * whole) return;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s is %.4f, beyond %.0f%% of %.4f", name.c_str(),
                gap, share * 100, whole);
  Fail(buf);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"ingest_mb_per_s", "MB/s"},
      {"point_query_us", "us"},
      {"history_query_us", "us"},
      {"range_query_us", "us"},
      {"retrieve_ms", "ms"},
      {"diff_ms", "ms"},
      {"xml.parse_ms_per_mb", "ms/MB"},
      {"xml.serialize_ms_per_mb", "ms/MB"},
      {"keys.annotate_ms_per_mb", "ms/MB"},
      {"core.merge_ms_per_version", "ms"},
      {"core.archive_nodes", "count"},
      {"core.diff_ms", "ms"},
      {"index.build_ms", "ms"},
      {"index.tree_probes_per_query", "count"},
      {"index.naive_probes_per_query", "count"},
      {"index.comparisons_per_query", "count"},
      {"query.parse_us", "us"},
      {"query.plan_us", "us"},
      {"xarch.append_ms", "ms"},
      {"xarch.query_us.point", "us"},
      {"xarch.query_us.history", "us"},
      {"xarch.query_us.range", "us"},
      {"xarch.query_us.heap_point", "us"},
      {"xarch.retrieve_ms", "ms"},
      {"persist.wal_append_ms", "ms"},
      {"persist.wal_bytes_per_input_byte", "ratio"},
      {"persist.snapshot_save_ms", "ms"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.snapshot_open_ms", "ms"},
      {"persist.replay_ms", "ms"},
      {"vfs.bytes_written_per_input_byte", "ratio"},
      {"vfs.fsyncs_per_version", "count"},
      {"server.ping_us", "us"},
      {"server.bytes_out_per_query", "bytes"},
      {"shard.scatter_reads_per_query", "count"},
      {"shard.routed_per_query", "count"},
      {"shard.ingest_imbalance", "ratio"},
      {"bench.reference_us", "us"},
      {"trace.ingest_unattributed_ms", "ms"},
      {"trace.query_unattributed_us", "us"},
  };
  return metrics;
}

namespace {

struct Metric {
  std::string name, unit;
  double value;
};

/// Prints a corrected median (with its p99 and sample count) and returns it.
double PrintTime(const std::string& name, const std::string& unit, const Samples& s,
                 double scale, double factor) {
  const double raw = s.Median() * scale;
  std::printf("%-18s %12.4f %-5s (uncorrected %.4f, p99 %.4f, n=%zu)\n",
              name.c_str(), raw * factor, unit.c_str(), raw,
              s.Quantile(0.99) * scale * factor, s.size());
  return raw * factor;
}

}  // namespace

void Report(const Args& args, const Measures& m, const Reference& ref,
            const Layers& measured) {
  const double fs = m.Factor(ref, Phase::kSetup);
  const double f = m.Factor(ref, Phase::kLoop);
  const double fr = m.Factor(ref, m.reopen_phase);
  const double fi = m.Factor(ref, m.ingest_phase);
  std::vector<Metric> e2e;
  std::printf("workload %s seed %llu: %zu reference slices (nominal %.1f us); "
              "median per phase: set-up %.4f us, loop %.4f us",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              ref.slices(), Reference::kNominalUs, Reference::kNominalUs / fs,
              Reference::kNominalUs / f);
  if (m.closing_from != SIZE_MAX) {
    std::printf(", closing %.4f us", Reference::kNominalUs / m.Factor(ref, Phase::kClosing));
  }
  std::printf("\n");
  std::printf("%-18s %12.4f s     (uncorrected %.4f)\n", "setup_s",
              m.setup_s * fs, m.setup_s);
  e2e.push_back({"setup_s", "s", m.setup_s * fs});
  // latency_ms: the geometric mean of each operation kind's median, so
  // every kind the loop runs weighs the same however fast it is.
  double log_sum = 0;
  for (const auto& [kind, samples] : m.ops_ms) {
    log_sum += std::log(samples.Median() * f);
    PrintTime("  op " + kind, "ms", samples, 1, f);
  }
  const double latency =
      m.ops_ms.empty() ? 0 : std::exp(log_sum / static_cast<double>(m.ops_ms.size()));
  std::printf("%-18s %12.4f ms    (geometric mean of %zu operation kinds)\n",
              "latency_ms", latency, m.ops_ms.size());
  e2e.push_back({"latency_ms", "ms", latency});
  e2e.push_back({"round_ms", "ms", PrintTime("round_ms", "ms", m.round_ms, 1, f)});
  e2e.push_back({"reopen_ms", "ms", PrintTime("reopen_ms", "ms", m.reopen_ms, 1, fr)});
  std::printf("%-18s %12.0f bytes\n", "archive_bytes", m.archive_bytes);
  e2e.push_back({"archive_bytes", "bytes", m.archive_bytes});
  std::printf("%-18s %12.0f bytes\n", "disk_bytes", m.disk_bytes);
  e2e.push_back({"disk_bytes", "bytes", m.disk_bytes});
  const double rss = PeakRssMb();
  std::printf("%-18s %12.3f MB\n", "peak_rss_mb", rss);
  e2e.push_back({"peak_rss_mb", "MB", rss});

  // The figures of single operation kinds, on the workloads that run them.
  // They are per-layer metrics of the traced run (README.md).
  Layers layers = measured;
  std::printf("-- per-kind figures (corrected)\n");
  if (m.ingest_ms.size() > 0) {
    const double ingest_s = m.ingest_ms.Sum() / 1000.0;
    const double mbps = m.ingest_bytes / 1e6 / ingest_s;
    std::printf("%-18s %12.4f MB/s  (uncorrected %.4f, %.0f bytes in %zu appends)\n",
                "ingest_mb_per_s", mbps / fi, mbps, m.ingest_bytes, m.ingest_ms.size());
    layers["ingest_mb_per_s"] = mbps / fi;
    layers["ingest_ms"] = PrintTime("ingest_ms", "ms", m.ingest_ms, 1, fi);
  }
  const char* names[kKinds] = {"point_query_us", "history_query_us", "range_query_us",
                               "retrieve_ms", "diff_ms"};
  for (int k = 0; k < kKinds; ++k) {
    if (m.latency_ms[k].size() == 0) continue;
    const bool us = k < 3;
    layers[names[k]] =
        PrintTime(names[k], us ? "us" : "ms", m.latency_ms[k], us ? 1000 : 1, f);
  }
  if (m.reads_ms.size() > 0) {
    const double raw = m.reads_ms.Quantile(0.99);
    std::printf("%-18s %12.4f ms    (uncorrected %.4f, n=%zu)\n", "read_p99_ms",
                raw * f, raw, m.reads_ms.size());
    layers["read_p99_ms"] = raw * f;
  }
  if (!m.correct) std::printf("INCORRECT: %s\n", m.error.c_str());

  std::string json = "{\"correct\": ";
  json += m.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto add = [&](const std::string& name, const std::string& unit, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (args.trace) {
    std::printf("-- traced figures\n");
    for (const auto& [name, v] : layers) std::printf("%-34s %14.4f\n", name.c_str(), v);
    for (const auto& [name, unit] : LayerMetrics()) {
      auto it = layers.find(name);
      add(name, unit, it == layers.end() ? 0 : it->second);
    }
  } else {
    for (const Metric& metric : e2e) add(metric.name, metric.unit, metric.value);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  if (std::filesystem::is_regular_file(dir, ec)) {
    return static_cast<double>(std::filesystem::file_size(dir, ec));
  }
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<double>(it->file_size(ec));
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

}  // namespace xbench
