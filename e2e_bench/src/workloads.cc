// The four workloads. Each does its set-up (timed as setup_s, from the
// process start), then whole rounds of the same operations until the run
// length is reached, then the closing checks, reopens and sizes. Every
// timed operation is followed by one reference slice.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "crash_vfs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "synth/swissprot.h"
#include "synth/xmark.h"
#include "xarch/durable.h"
#include "xarch/sharded_store.h"
#include "xarch/store_registry.h"
#include "xml/serializer.h"

namespace xbench {

using xarch::Status;
using xarch::Store;
using xarch::Version;

namespace {

// ------------------------------------------------------------ settings

// XMark corpus (serve, mixed, sharded): the Fig. 13 simulator at the
// generator's default size, 5% random churn per version.
constexpr int kXMarkVersions = 32;
constexpr double kXMarkChurnPct = 5.0;
// Swiss-Prot curation (curate): releases per round and the store's
// auto-snapshot interval.
constexpr int kReleases = 10;
constexpr uint64_t kSnapshotEvery = 4;
// Open-loop settings of mixed.
constexpr int kMixedRoundMs = 500;
constexpr int kMixedReaders = 2;
constexpr int kMixedIngestOffsetMs = 250;
// The open-loop generator sleeps until this long before a send is due and
// spins the rest, so timer wake-up jitter does not land in the latencies.
constexpr auto kSpin = std::chrono::microseconds(1500);
// Reference slices after each timed append, reopen and generated
// Swiss-Prot release; one after each query.
constexpr int kSlicesPerAppend = 8;
constexpr int kSlicesPerReopen = 4;
constexpr int kSlicesPerRelease = 8;
// Restarts timed after the measured rounds: a durable reopen takes a few
// ms (serve, mixed), a sharded one tens of ms.
constexpr int kDurableReopens = 100;
constexpr int kShardedReopens = 20;
// Tolerances of the traced run's independent-path totals (README.md): the
// ingest gap against Store::Append, the query gap against the loopback
// point query.
constexpr double kIngestGapShare = 0.25;
constexpr double kQueryGapShare = 0.5;

void Die(const Status& st, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}
template <typename T>
T Take(xarch::StatusOr<T> so, const char* what) {
  if (!so.ok()) Die(so.status(), what);
  return std::move(so).value();
}

xarch::keys::KeySpecSet Spec(const char* text) {
  return Take(xarch::keys::ParseKeySpecSet(text), "key spec");
}

/// A shuffled round of queries: `counts[k]` queries of kind k.
std::vector<Query> MakeRound(const Truth& truth, const std::vector<int>& counts,
                             Version limit, xarch::Rng& rng) {
  std::vector<Query> round;
  for (int k = 0; k < kKinds; ++k) {
    for (int i = 0; i < counts[k]; ++i) {
      round.push_back(truth.MakeQuery(static_cast<Kind>(k), limit, rng));
    }
  }
  std::shuffle(round.begin(), round.end(), rng.engine());
  return round;
}

/// One timed, checked read. Returns its latency in ms, or -1 when the
/// query failed.
double TimedRead(Reader& reader, Checker& checker, const Query& q, Measures& m,
               Reference& ref, Tracer& tracer, const char* span_name,
               Version committed) {
  std::string out;
  const auto t0 = Clock::now();
  Status st;
  {
    auto span = tracer.Open(span_name);
    st = reader.Query(q.text, &out);
  }
  const double ms = MsSince(t0);
  ++m.attempted;
  ref.Slice();
  if (!st.ok()) {
    ++m.failed;
    m.Fail(q.text + ": " + st.ToString());
    return -1;
  }
  m.Read(q.kind, ms);
  if (!checker.Check(q, out, committed, committed)) m.Fail(checker.first_error());
  return ms;
}

/// Timed Store::Append of one document.
double TimedAppend(Store& store, const std::string& text, Measures& m,
                   Reference& ref, Tracer& tracer) {
  const auto t0 = Clock::now();
  Status st;
  {
    auto span = tracer.Open("Store::Append");
    st = store.Append(text);
  }
  const double ms = MsSince(t0);
  ++m.attempted;
  // An append takes tens of ms; a few slices after each keep the reference
  // sample as large as on the query workloads.
  for (int i = 0; i < kSlicesPerAppend; ++i) ref.Slice();
  if (!st.ok()) {
    ++m.failed;
    m.Fail("append: " + st.ToString());
  }
  return ms;
}

void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// The XMark corpus, generated one version at a time.
struct XMark {
  explicit XMark(uint64_t seed)
      : gen([&] {
          xarch::synth::XMarkGenerator::Options o;
          o.seed = seed * 7919 + 974750;
          return o;
        }()) {}
  /// The next version's text; records its expected answers first.
  std::string Next(Truth& truth) {
    xarch::xml::NodePtr doc = gen.Current();
    gen.MutateRandom(kXMarkChurnPct);
    truth.AddVersion(*doc);
    return xarch::xml::Serialize(*doc);
  }
  xarch::synth::XMarkGenerator gen;
};

/// Opens the durable directory, runs one query and returns the store; the
/// time from open to the first answer goes to m.reopen_ms (and `took`).
std::unique_ptr<Store> TimedReopen(const std::string& dir,
                                   xarch::DurableOptions options,
                                   const Query& first, Measures& m,
                                   Reference& ref, Tracer& tracer,
                                   double* took = nullptr) {
  const auto t0 = Clock::now();
  std::unique_ptr<Store> store;
  {
    auto span = tracer.Open("OpenDurable");
    store = Take(xarch::OpenDurable(dir, std::move(options)), "reopen");
  }
  xarch::StringSink sink;
  Status st = store->Query(first.text, sink);
  const double ms = MsSince(t0);
  m.reopen_ms.Add(ms);
  if (took != nullptr) *took = ms;
  ++m.attempted;
  for (int i = 0; i < kSlicesPerReopen; ++i) ref.Slice();
  if (!st.ok()) {
    ++m.failed;
    m.Fail("first query after reopen: " + st.ToString());
  }
  return store;
}

/// StoreRegistry::Open of a snapshot file, timed.
double TimedSnapshotOpen(const std::string& path, Tracer& tracer) {
  const auto t0 = Clock::now();
  {
    auto span = tracer.Open("StoreRegistry::Open");
    Take(xarch::StoreRegistry::Open(path, {}, xarch::vfs::Vfs::Mmap()), "snapshot open");
  }
  return MsSince(t0);
}

double TimedSave(Store& store, const std::string& path, Tracer& tracer) {
  const auto t0 = Clock::now();
  {
    auto span = tracer.Open("Store::SaveToFile");
    if (Status st = store.SaveToFile(path); !st.ok()) Die(st, "save");
  }
  return MsSince(t0);
}

void FillProbes(Store& store, const xarch::StoreStats& before, Layers& layers) {
  const xarch::StoreStats after = store.Stats();
  const double queries = static_cast<double>(after.queries - before.queries);
  SetRatio(layers, "index.tree_probes_per_query",
           static_cast<double>(after.query_tree_probes - before.query_tree_probes), queries);
  SetRatio(layers, "index.naive_probes_per_query",
           static_cast<double>(after.query_naive_probes - before.query_naive_probes), queries);
  SetRatio(layers, "index.comparisons_per_query",
           static_cast<double>(after.query_comparisons - before.query_comparisons), queries);
  layers["core.archive_nodes"] = static_cast<double>(after.node_count);
}

double TimedDiff(Store& store, Version a, Tracer& tracer) {
  const auto t0 = Clock::now();
  {
    auto span = tracer.Open("Store::DiffVersions");
    Take(store.DiffVersions(a, a + 1), "diff");
  }
  return MsSince(t0);
}

/// In-process point queries: the median time, in µs.
double InProcessPointUs(Store& store, const Truth& truth, Version limit, int n,
                        uint64_t seed, Tracer& tracer) {
  xarch::Rng rng(seed);
  Samples us;
  std::string out;
  auto reader = LocalReader(store);
  for (int i = 0; i < n; ++i) {
    Query q = truth.MakeQuery(Kind::kPoint, limit, rng);
    const auto t0 = Clock::now();
    auto span = tracer.Open("Store::Query");
    if (!reader->Query(q.text, &out).ok()) Die(Status::InvalidArgument(q.text), "query");
    us.Add(MsSince(t0) * 1000);
  }
  return us.Median();
}

}  // namespace

// =============================================================== curate

void RunCurate(const Args& args, Clock::time_point start, Reference& ref,
               Tracer& tracer, Measures& m, Layers& layers,
               const std::string& work) {
  xarch::synth::SwissProtGenerator::Options gen_options;
  gen_options.seed = args.seed * 104729 + 19971101;
  // Expected answers for the round's releases (and the one the crash
  // interrupts), computed once; each round regenerates the texts one at a
  // time.
  Truth truth(SwissProtShape());
  {
    xarch::synth::SwissProtGenerator gen(gen_options);
    for (int r = 0; r <= kReleases; ++r) {
      truth.AddVersion(*gen.NextVersion());
      for (int i = 0; i < kSlicesPerRelease; ++i) ref.Slice();
    }
  }
  CrashVfs vfs(xarch::vfs::Vfs::Posix());
  auto durable_options = [&] {
    xarch::DurableOptions o;
    o.backend = "archive";
    o.vfs = &vfs;
    o.store.spec = Spec(xarch::synth::SwissProtGenerator::KeySpecText());
    o.store.use_index = true;
    o.fsync = xarch::persist::FsyncPolicy::kEveryRecord;
    o.snapshot_every_records = kSnapshotEvery;
    return o;
  };
  // The probe's log goes through a wrapper of its own, so the store's
  // write counts stay the store's.
  CrashVfs probe_vfs(xarch::vfs::Vfs::Posix());
  std::unique_ptr<IngestProbe> probe;
  if (tracer.enabled()) {
    probe = std::make_unique<IngestProbe>(xarch::synth::SwissProtGenerator::KeySpecText(),
                                          &probe_vfs, work + "/probe.log", tracer);
  }
  Samples gap_ms, snapshot_open_ms, save_ms;
  double snapshot_bytes = 0;
  const std::string dir = work + "/curate";
  m.reopen_phase = Phase::kLoop;
  m.StartLoop(start, ref);

  // Each round is a curator's session: the releases are archived one at a
  // time and no query runs, until the machine goes down; the reopen and
  // the retrieve of the last release are the durability check.
  const auto loop_start = Clock::now();
  for (int round = 0; round == 0 || MsSince(loop_start) < args.seconds * 1000; ++round) {
    vfs.RemoveTree(dir);
    auto store = Take(xarch::OpenDurable(dir, durable_options()), "open durable");
    xarch::synth::SwissProtGenerator gen(gen_options);
    for (Version v = 1; v <= kReleases; ++v) {
      const std::string text = xarch::xml::Serialize(*gen.NextVersion());
      const double ms = TimedAppend(*store, text, m, ref, tracer);
      m.ingest_ms.Add(ms);
      m.Op("append", ms);
      m.ingest_bytes += static_cast<double>(text.size());
      if (probe) gap_ms.Add(ms - probe->Observe(text, /*with_wal=*/true));
    }
    m.archive_bytes = static_cast<double>(store->Stats().stored_bytes);
    if (tracer.enabled()) {
      layers["core.archive_nodes"] = static_cast<double>(store->Stats().node_count);
      const std::string snap = work + "/probe.xar";
      save_ms.Add(TimedSave(*store, snap, tracer));
      snapshot_bytes = DirBytes(snap);
      snapshot_open_ms.Add(TimedSnapshotOpen(snap, tracer));
    }

    // The machine goes down while the next release is being logged: its
    // append is never acknowledged, and every byte no fsync covered is lost.
    const std::string crashed = xarch::xml::Serialize(*gen.NextVersion());
    vfs.ArmCrash();
    if (store->Append(crashed).ok()) m.Fail("append during the crash was acknowledged");
    store.reset();
    Take(vfs.Crash(), "crash");
    xarch::Rng first_rng(args.seed);
    double reopen_ms = 0;
    store = TimedReopen(dir, durable_options(),
                        truth.MakeQuery(Kind::kPoint, kReleases, first_rng), m, ref,
                        tracer, &reopen_ms);
    m.Op("reopen", reopen_ms);
    if (store->version_count() != static_cast<Version>(kReleases)) {
      m.Fail("reopened store holds " + std::to_string(store->version_count()) +
             " versions, acknowledged " + std::to_string(kReleases));
    }
    Checker checker(truth);
    auto reader = LocalReader(*store);
    xarch::Rng rng(args.seed * 31 + 7);
    Query last = truth.MakeQuery(Kind::kRetrieve, kReleases, rng);
    last.a = kReleases;
    last.text = "/ROOT @ version " + std::to_string(kReleases);
    TimedRead(*reader, checker, last, m, ref, tracer, "Store::Query", kReleases);
    m.EndRound();
    reader.reset();
    if (Status st = xarch::CheckpointDurableIfDirty(*store); !st.ok()) {
      Die(st, "checkpoint");
    }
    m.disk_bytes = DirBytes(dir);
  }
  vfs.RemoveTree(dir);
  if (tracer.enabled()) {
    probe->Fill(layers);
    layers["trace.ingest_unattributed_ms"] = gap_ms.Median();
    layers["xarch.append_ms"] = tracer.DurationsMs("Store::Append").Median();
    m.HoldGap("trace.ingest_unattributed_ms", gap_ms.Median(), layers["xarch.append_ms"],
              kIngestGapShare);
    layers["persist.snapshot_save_ms"] = save_ms.Median();
    layers["persist.snapshot_bytes"] = snapshot_bytes;
    layers["persist.snapshot_open_ms"] = snapshot_open_ms.Median();
    layers["persist.replay_ms"] = m.reopen_ms.Median() - snapshot_open_ms.Median();
    SetRatio(layers, "vfs.bytes_written_per_input_byte",
             static_cast<double>(vfs.bytes_written()), m.ingest_bytes);
    SetRatio(layers, "vfs.fsyncs_per_version", static_cast<double>(vfs.fsyncs()),
             static_cast<double>(m.ingest_ms.size()));
  }
}

// ============================================================ XMark set-up

namespace {

/// The durable store as xarchd opens it for an XMark archive: index on,
/// fsync on every record, snapshots only at checkpoints.
xarch::DurableOptions XMarkDurable(CrashVfs* vfs) {
  xarch::DurableOptions o;
  o.backend = "archive";
  o.vfs = vfs;
  o.store.spec = Spec(xarch::synth::XMarkGenerator::KeySpecText());
  o.store.use_index = true;
  o.fsync = xarch::persist::FsyncPolicy::kEveryRecord;
  return o;
}

/// Appends the XMark corpus one version at a time. With `timed`, the
/// appends count as the run's ingest.
void IngestCorpus(Store& store, XMark& xmark, Truth& truth, bool timed,
                  Measures& m, Reference& ref, Tracer& tracer,
                  IngestProbe* probe, bool with_wal, Samples* gap_ms) {
  for (int v = 0; v < kXMarkVersions; ++v) {
    const std::string text = xmark.Next(truth);
    const double ms = TimedAppend(store, text, m, ref, tracer);
    if (timed) {
      m.ingest_ms.Add(ms);
      m.ingest_bytes += static_cast<double>(text.size());
    }
    if (probe != nullptr) gap_ms->Add(ms - probe->Observe(text, with_wal));
  }
}

/// The query each reopen waits for: a point query, another one each time,
/// so the reopen median does not rest on one element.
Query FirstQuery(const Truth& truth, xarch::Rng& rng) {
  return truth.MakeQuery(Kind::kPoint, kXMarkVersions, rng);
}

void CheckpointOrDie(Store& store) {
  if (Status st = xarch::CheckpointDurableIfDirty(store); !st.ok()) {
    Die(st, "checkpoint");
  }
}

std::unique_ptr<xarch::server::Server> StartServer(Store& store, size_t sessions) {
  xarch::server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.session_threads = sessions;
  options.max_inflight_queries = sessions;
  return Take(xarch::server::Server::Start(store, std::move(options)), "server start");
}

std::unique_ptr<xarch::Client> Connect(const xarch::server::Server& server) {
  xarch::ClientOptions options;
  options.client_name = "xarch-e2e-bench";
  return Take(xarch::Client::Connect("127.0.0.1", server.port(), options), "connect");
}

void StopServer(std::unique_ptr<xarch::server::Server>& server) {
  server->RequestStop();
  server->Join();
  server.reset();
}

void FillSnapshotLayers(Store& store, const std::string& snap, const Measures& m,
                        bool durable, Tracer& tracer, Layers& layers) {
  layers["persist.snapshot_save_ms"] = TimedSave(store, snap, tracer);
  layers["persist.snapshot_bytes"] = DirBytes(snap);
  Samples open_ms;
  for (int i = 0; i < 3; ++i) open_ms.Add(TimedSnapshotOpen(snap, tracer));
  layers["persist.snapshot_open_ms"] = open_ms.Median();
  if (durable) {
    layers["persist.replay_ms"] = m.reopen_ms.Median() - open_ms.Median();
  }
}

}  // namespace

// ================================================================= serve

void RunServe(const Args& args, Clock::time_point start, Reference& ref,
              Tracer& tracer, Measures& m, Layers& layers,
              const std::string& work) {
  Truth truth(XMarkShape());
  XMark xmark(args.seed);
  CrashVfs vfs(xarch::vfs::Vfs::Posix());  // counts only; never crashes here
  const std::string dir = work + "/serve";
  CrashVfs probe_vfs(xarch::vfs::Vfs::Posix());
  std::unique_ptr<IngestProbe> probe;
  if (tracer.enabled()) {
    probe = std::make_unique<IngestProbe>(xarch::synth::XMarkGenerator::KeySpecText(),
                                          &probe_vfs, work + "/probe.log", tracer);
  }
  Samples gap_ms;
  // The corpus is loaded into an in-memory archive store (index on) and
  // checkpointed into the durable directory, which then opens as xarchd
  // opens it after a restart. Loading in memory keeps page-cache writeback
  // out of the ingest timing; curate measures the logged path.
  auto make_loader = [] {
    xarch::StoreOptions load_options;
    load_options.spec = Spec(xarch::synth::XMarkGenerator::KeySpecText());
    load_options.use_index = true;
    return Take(xarch::StoreRegistry::Create("archive", std::move(load_options)), "create");
  };
  auto loader = make_loader();
  IngestCorpus(*loader, xmark, truth, /*timed=*/false, m, ref, tracer, probe.get(),
               /*with_wal=*/false, &gap_ms);
  if (tracer.enabled()) {
    // The same point queries on the heap archive, before the restart.
    layers["xarch.query_us.heap_point"] =
        InProcessPointUs(*loader, truth, kXMarkVersions, 200, args.seed, tracer);
    probe->Fill(layers);
    layers["trace.ingest_unattributed_ms"] = gap_ms.Median();
    layers["xarch.append_ms"] = tracer.DurationsMs("Store::Append").Median();
    m.HoldGap("trace.ingest_unattributed_ms", gap_ms.Median(), layers["xarch.append_ms"],
              kIngestGapShare);
  }
  m.archive_bytes = static_cast<double>(loader->Stats().stored_bytes);
  if (Status st = vfs.CreateDirs(dir); !st.ok()) Die(st, "mkdir");
  if (Status st = loader->SaveToFile(dir + "/snapshot.xar"); !st.ok()) Die(st, "checkpoint");
  loader.reset();
  // Restarted from the checkpoint, the store serves the flat XAR2 archive.
  auto store = Take(xarch::OpenDurable(dir, XMarkDurable(&vfs)), "restart");
  m.disk_bytes = DirBytes(dir);
  auto server = StartServer(*store, 2);
  auto client = Connect(*server);
  auto reader = RemoteReader(*client);
  auto local = LocalReader(*store);
  m.StartLoop(start, ref);

  xarch::Rng rng(args.seed * 31 + 7);
  Checker checker(truth);
  QueryProbe query_probe(tracer);
  const std::vector<int> counts = {8, 8, 2, 1, 1};
  const xarch::StoreStats before = store->Stats();
  uint64_t done = 0;
  Samples local_ms[kKinds], ping_us, gap_us, diff_ms;
  const auto loop_start = Clock::now();
  while (done == 0 || MsSince(loop_start) < args.seconds * 1000) {
    for (const Query& q : MakeRound(truth, counts, kXMarkVersions, rng)) {
      const double ms =
          TimedRead(*reader, checker, q, m, ref, tracer, "Client::Query", kXMarkVersions);
      if (ms >= 0) ++done;
      if (!tracer.enabled()) continue;
      // Traced run only: the same query in-process, and one ping, so the
      // loopback time splits into store and protocol shares.
      query_probe.Observe(q.text);
      std::string out;
      auto t0 = Clock::now();
      {
        auto span = tracer.Open("Store::Query");
        local->Query(q.text, &out);
      }
      const double in_ms = MsSince(t0);
      local_ms[static_cast<int>(q.kind)].Add(in_ms);
      t0 = Clock::now();
      {
        auto span = tracer.Open("Client::Ping");
        if (!client->Ping().ok()) m.Fail("ping failed");
      }
      const double ping = MsSince(t0);
      ping_us.Add(ping * 1000);
      if (q.kind == Kind::kPoint || q.kind == Kind::kHistory) {
        gap_us.Add((ms - in_ms - ping) * 1000);
      }
    }
    m.EndRound();
  }
  // Counters are read on the issuing connection: the server counts a query
  // only after it wrote DONE, so another connection could read a stale
  // count.
  auto stats = Take(client->Stats(), "stats");
  if (stats.queries != done) {
    m.Fail("server counted " + std::to_string(stats.queries) + " queries, " +
           std::to_string(done) + " got DONE");
  }
  if (tracer.enabled()) {
    FillProbes(*store, before, layers);
    query_probe.Fill(layers);
    layers["xarch.query_us.point"] = local_ms[0].Median() * 1000;
    layers["xarch.query_us.history"] = local_ms[1].Median() * 1000;
    layers["xarch.query_us.range"] = local_ms[2].Median() * 1000;
    layers["xarch.retrieve_ms"] = local_ms[3].Median();
    layers["server.ping_us"] = ping_us.Median();
    SetRatio(layers, "server.bytes_out_per_query",
             static_cast<double>(stats.session_bytes_out), static_cast<double>(done));
    layers["trace.query_unattributed_us"] = gap_us.Median();
    m.HoldGap("trace.query_unattributed_us", gap_us.Median(),
              m.latency_ms[static_cast<int>(Kind::kPoint)].Median() * 1000, kQueryGapShare);
    xarch::Rng diff_rng(args.seed);
    for (int i = 0; i < 20; ++i) {
      diff_ms.Add(TimedDiff(*store, static_cast<Version>(diff_rng.Uniform(1, kXMarkVersions - 1)),
                            tracer));
    }
    layers["core.diff_ms"] = diff_ms.Median();
  }
  reader.reset();
  client.reset();
  StopServer(server);
  local.reset();
  store.reset();
  m.StartClosing(ref);
  xarch::Rng first_rng(args.seed);
  for (int i = 0; i < kDurableReopens; ++i) {
    store =
        TimedReopen(dir, XMarkDurable(&vfs), FirstQuery(truth, first_rng), m, ref, tracer);
    if (i + 1 < kDurableReopens) store.reset();
  }
  if (tracer.enabled()) {
    FillSnapshotLayers(*store, work + "/probe.xar", m, /*durable=*/true, tracer, layers);
  }
}

// ================================================================= mixed

void RunMixed(const Args& args, Clock::time_point start, Reference& ref,
              Tracer& tracer, Measures& m, Layers& layers,
              const std::string& work) {
  Truth truth(XMarkShape());
  XMark xmark(args.seed);
  CrashVfs vfs(xarch::vfs::Vfs::Posix());  // counts only; never crashes here
  const std::string dir = work + "/mixed";
  CrashVfs probe_vfs(xarch::vfs::Vfs::Posix());
  std::unique_ptr<IngestProbe> probe;
  if (tracer.enabled()) {
    probe = std::make_unique<IngestProbe>(xarch::synth::XMarkGenerator::KeySpecText(),
                                          &probe_vfs, work + "/probe.log", tracer);
  }
  Samples gap_ms;
  auto store = Take(xarch::OpenDurable(dir, XMarkDurable(&vfs)), "open durable");
  IngestCorpus(*store, xmark, truth, /*timed=*/false, m, ref, tracer, probe.get(),
               /*with_wal=*/true, &gap_ms);
  auto server = StartServer(*store, kMixedReaders + 2);
  auto ingest_client = Connect(*server);
  std::vector<std::unique_ptr<xarch::Client>> read_clients;
  for (int r = 0; r < kMixedReaders; ++r) read_clients.push_back(Connect(*server));
  std::string next = xmark.Next(truth);
  m.StartLoop(start, ref);

  // Open loop: a fixed schedule of rounds; each reader sends its round's
  // reads evenly spaced, and the writer ingests one version mid-round.
  const int rounds = std::max(1, static_cast<int>(args.seconds * 1000 / kMixedRoundMs));
  const std::vector<int> counts = {8, 6, 2, 1, 1};
  int per_round = 0;
  for (int c : counts) per_round += c;
  const auto period = std::chrono::microseconds(kMixedRoundMs * 1000 / per_round);
  const auto round_len = std::chrono::milliseconds(kMixedRoundMs);
  // `committed` is acknowledged by INGEST_OK; `upper` also counts the
  // version in flight, which the store may answer with before the writer
  // sees its acknowledgement.
  std::atomic<Version> committed{kXMarkVersions};
  std::atomic<Version> upper{kXMarkVersions};
  const xarch::StoreStats before = store->Stats();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);

  struct ReadRecord {
    Clock::time_point due, end;
    std::string text;
  };
  struct ReaderState {
    Measures m;
    Reference ref;
    Samples late_ms;
    std::vector<double> round_ms;  ///< summed read latency per round
    std::vector<ReadRecord> records;
  };
  std::vector<std::unique_ptr<ReaderState>> states;
  for (int r = 0; r < kMixedReaders; ++r) {
    states.push_back(std::make_unique<ReaderState>());
    states.back()->round_ms.assign(rounds, 0.0);
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < kMixedReaders; ++r) {
    threads.emplace_back([&, r] {
      ReaderState& s = *states[r];
      xarch::Rng rng(args.seed * 31 + 7 + r);
      Checker checker(truth);
      auto reader = RemoteReader(*read_clients[r]);
      const auto offset = period * r / kMixedReaders;
      for (int k = 0; k < rounds; ++k) {
        std::vector<Query> queries = MakeRound(truth, counts, kXMarkVersions, rng);
        for (size_t j = 0; j < queries.size(); ++j) {
          const Query& q = queries[j];
          const auto due = t0 + round_len * k + period * j + offset;
          WaitUntil(due);
          const Version known = committed.load();
          const auto sent = Clock::now();
          std::string out;
          Status st;
          {
            auto span = tracer.Open("Client::Query");
            st = reader->Query(q.text, &out);
          }
          const auto end = Clock::now();
          const Version seen = upper.load();
          ++s.m.attempted;
          s.late_ms.Add(MsBetween(due, sent));
          if (!st.ok()) {
            ++s.m.failed;
            s.m.Fail(q.text + ": " + st.ToString());
          } else {
            s.m.Read(q.kind, MsBetween(due, end));
            s.round_ms[k] += MsBetween(due, end);
            if (!checker.Check(q, out, known, seen)) s.m.Fail(checker.first_error());
          }
          if (tracer.enabled()) s.records.push_back({due, end, q.text});
          s.ref.Slice();
        }
      }
    });
  }
  std::vector<std::pair<Clock::time_point, Clock::time_point>> ingests;
  std::vector<double> ingest_round_ms(rounds, 0.0);
  for (int k = 0; k < rounds; ++k) {
    WaitUntil(t0 + round_len * k + std::chrono::milliseconds(kMixedIngestOffsetMs));
    const Version prev = committed.load();
    upper.store(prev + 1);
    const auto sent = Clock::now();
    xarch::StatusOr<Version> count = xarch::Status::InvalidArgument("not sent");
    {
      auto span = tracer.Open("Client::Ingest");
      count = ingest_client->Ingest({next});
    }
    const auto end = Clock::now();
    ++m.attempted;
    if (!count.ok()) {
      ++m.failed;
      m.Fail("ingest: " + count.status().ToString());
    } else {
      if (*count != prev + 1) {
        m.Fail("INGEST_OK reported " + std::to_string(*count) + " versions after " +
               std::to_string(prev));
      }
      committed.store(*count);
      m.ingest_ms.Add(MsBetween(sent, end));
      ingest_round_ms[k] = MsBetween(sent, end);
      m.ingest_bytes += static_cast<double>(next.size());
    }
    ingests.emplace_back(sent, end);
    ref.Slice();
    if (probe) probe->Observe(next, /*with_wal=*/true);
    next = xmark.Next(truth);
  }
  for (std::thread& t : threads) t.join();
  Samples late_ms;
  for (auto& s : states) {
    m.attempted += s->m.attempted;
    m.failed += s->m.failed;
    if (!s->m.correct) m.Fail(s->m.error);
    for (int k = 0; k < kKinds; ++k) m.latency_ms[k].Append(s->m.latency_ms[k]);
    m.reads_ms.Append(s->m.reads_ms);
    for (const auto& [kind, samples] : s->m.ops_ms) m.ops_ms[kind].Append(samples);
    ref.Merge(s->ref);
    late_ms.Append(s->late_ms);
  }
  m.StartClosing(ref);
  m.ops_ms["ingest"] = m.ingest_ms;
  for (int k = 0; k < rounds; ++k) {
    double total = ingest_round_ms[k];
    for (auto& s : states) total += s->round_ms[k];
    m.round_ms.Add(total);
  }
  if (store->version_count() != static_cast<Version>(kXMarkVersions + rounds)) {
    m.Fail("store holds " + std::to_string(store->version_count()) + " versions after " +
           std::to_string(rounds) + " ingests");
  }
  m.archive_bytes = static_cast<double>(store->Stats().stored_bytes);
  if (tracer.enabled()) {
    FillProbes(*store, before, layers);
    probe->Fill(layers);
    layers["trace.ingest_unattributed_ms"] = gap_ms.Median();
    layers["xarch.append_ms"] = tracer.DurationsMs("Store::Append").Median();
    m.HoldGap("trace.ingest_unattributed_ms", gap_ms.Median(), layers["xarch.append_ms"],
              kIngestGapShare);
    layers["load.late_ms"] = late_ms.Quantile(0.99);
    layers["xarch.query_us.heap_point"] =
        InProcessPointUs(*store, truth, kXMarkVersions, 200, args.seed, tracer);
    // A read's wait: its latency minus the same query's in-process time,
    // for reads whose interval overlapped an ingest.
    auto local = LocalReader(*store);
    Samples wait_ms;
    for (auto& s : states) {
      for (const ReadRecord& rec : s->records) {
        bool overlapped = false;
        for (const auto& [a, b] : ingests) overlapped |= rec.due < b && a < rec.end;
        if (!overlapped) continue;
        std::string out;
        const auto q0 = Clock::now();
        local->Query(rec.text, &out);
        wait_ms.Add(MsBetween(rec.due, rec.end) - MsSince(q0));
      }
    }
    layers["xarch.read_wait_ms"] = wait_ms.Median();
    Samples ping_us;
    for (int i = 0; i < 50; ++i) {
      const auto p0 = Clock::now();
      auto span = tracer.Open("Client::Ping");
      if (!ingest_client->Ping().ok()) m.Fail("ping failed");
      ping_us.Add(MsSince(p0) * 1000);
    }
    layers["server.ping_us"] = ping_us.Median();
    auto stats = Take(ingest_client->Stats(), "stats");
    SetRatio(layers, "server.bytes_out_per_query",
             static_cast<double>(stats.bytes_out), static_cast<double>(stats.queries));
    SetRatio(layers, "vfs.bytes_written_per_input_byte",
             static_cast<double>(vfs.bytes_written()), m.ingest_bytes);
    SetRatio(layers, "vfs.fsyncs_per_version", static_cast<double>(vfs.fsyncs()),
             kXMarkVersions + rounds);
  }
  read_clients.clear();
  ingest_client.reset();
  StopServer(server);
  CheckpointOrDie(*store);
  m.disk_bytes = DirBytes(dir);
  store.reset();
  xarch::Rng first_rng(args.seed);
  for (int i = 0; i < kDurableReopens; ++i) {
    store =
        TimedReopen(dir, XMarkDurable(&vfs), FirstQuery(truth, first_rng), m, ref, tracer);
    if (i + 1 < kDurableReopens) store.reset();
  }
  if (tracer.enabled()) {
    FillSnapshotLayers(*store, work + "/probe.xar", m, /*durable=*/true, tracer, layers);
  }
}

// =============================================================== sharded

void RunSharded(const Args& args, Clock::time_point start, Reference& ref,
                Tracer& tracer, Measures& m, Layers& layers,
                const std::string& work) {
  Truth truth(XMarkShape());
  XMark xmark(args.seed);
  CrashVfs probe_vfs(xarch::vfs::Vfs::Posix());
  std::unique_ptr<IngestProbe> probe;
  if (tracer.enabled()) {
    probe = std::make_unique<IngestProbe>(xarch::synth::XMarkGenerator::KeySpecText(),
                                          &probe_vfs, work + "/probe.log", tracer);
  }
  Samples gap_ms;
  xarch::StoreOptions options;
  options.spec = Spec(xarch::synth::XMarkGenerator::KeySpecText());
  options.use_index = true;
  options.shards = 4;
  auto store = Take(xarch::StoreRegistry::Create("sharded", std::move(options)), "create");
  auto* sharded = dynamic_cast<xarch::ShardedStore*>(store.get());
  if (sharded == nullptr) Die(Status::InvalidArgument("not a ShardedStore"), "create");
  IngestCorpus(*store, xmark, truth, /*timed=*/true, m, ref, tracer, probe.get(),
               /*with_wal=*/false, &gap_ms);
  m.archive_bytes = static_cast<double>(store->Stats().stored_bytes);
  auto reader = LocalReader(*store);
  m.ingest_phase = Phase::kSetup;
  m.StartLoop(start, ref);

  auto scatter = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < sharded->shard_count(); ++i) total += sharded->scatter_reads(i);
    return total;
  };
  auto routed = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < sharded->shard_count(); ++i) {
      total += xarch::obs::Registry::Default()
                   .GetCounter("xarch_shard_routed_queries_total",
                               "shard=\"" + std::to_string(i) + "\"")
                   ->value();
    }
    return total;
  };
  const uint64_t scatter0 = scatter(), routed0 = routed();
  xarch::Rng rng(args.seed * 31 + 7);
  Checker checker(truth);
  QueryProbe query_probe(tracer);
  // The serve corpus's point and history queries.
  const std::vector<int> counts = {6, 6, 0, 0, 0};
  const auto loop_start = Clock::now();
  uint64_t queries = 0;
  while (queries == 0 || MsSince(loop_start) < args.seconds * 1000) {
    for (const Query& q : MakeRound(truth, counts, kXMarkVersions, rng)) {
      if (tracer.enabled()) query_probe.Observe(q.text);
      TimedRead(*reader, checker, q, m, ref, tracer, "Store::Query", kXMarkVersions);
      ++queries;
    }
    m.EndRound();
  }
  if (tracer.enabled()) {
    probe->Fill(layers);
    query_probe.Fill(layers);
    layers["core.archive_nodes"] = static_cast<double>(store->Stats().node_count);
    layers["trace.ingest_unattributed_ms"] = gap_ms.Median();
    layers["xarch.append_ms"] = tracer.DurationsMs("Store::Append").Median();
    layers["xarch.query_us.point"] = m.latency_ms[0].Median() * 1000;
    layers["xarch.query_us.history"] = m.latency_ms[1].Median() * 1000;
    SetRatio(layers, "shard.scatter_reads_per_query",
             static_cast<double>(scatter() - scatter0), static_cast<double>(queries));
    SetRatio(layers, "shard.routed_per_query",
             static_cast<double>(routed() - routed0), static_cast<double>(queries));
    double largest = 0, total = 0;
    for (size_t i = 0; i < sharded->shard_count(); ++i) {
      const double nodes = static_cast<double>(sharded->shard(i).Stats().node_count);
      largest = std::max(largest, nodes);
      total += nodes;
    }
    SetRatio(layers, "shard.ingest_imbalance", largest * sharded->shard_count(), total);
  }
  m.StartClosing(ref);
  const std::string snap = work + "/sharded.xar";
  const double save_ms = TimedSave(*store, snap, tracer);
  m.disk_bytes = DirBytes(snap);
  reader.reset();
  store.reset();
  xarch::Rng first_rng(args.seed);
  for (int i = 0; i < kShardedReopens; ++i) {
    const Query first = FirstQuery(truth, first_rng);
    const auto t0 = Clock::now();
    std::unique_ptr<Store> reopened;
    {
      auto span = tracer.Open("StoreRegistry::Open");
      reopened = Take(xarch::StoreRegistry::Open(snap, {}, xarch::vfs::Vfs::Mmap()), "reopen");
    }
    xarch::StringSink sink;
    Status st = reopened->Query(first.text, sink);
    m.reopen_ms.Add(MsSince(t0));
    ++m.attempted;
    for (int s = 0; s < kSlicesPerReopen; ++s) ref.Slice();
    if (!st.ok()) {
      ++m.failed;
      m.Fail("first query after reopen: " + st.ToString());
    }
  }
  if (tracer.enabled()) {
    layers["persist.snapshot_save_ms"] = save_ms;
    layers["persist.snapshot_bytes"] = m.disk_bytes;
    layers["persist.snapshot_open_ms"] = tracer.DurationsMs("StoreRegistry::Open").Median();
  }
}

}  // namespace xbench
