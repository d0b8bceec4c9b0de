// xarch_e2e: one run of one workload of the end-to-end benchmark.
//
//   xarch_e2e --workload curate|serve|mixed|sharded --seed N --seconds S
//             --trace 0|1
//
// Prints a human-readable report, then, as the last line, one JSON object
// with "correct", "attempted", "failed" and "metrics" (the end-to-end
// metrics, or with --trace 1 the per-layer metrics). Working files go to
// .bench_work/ under the current directory and are removed at exit; the
// traced run keeps its spans in .bench_work/traces/.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "xarch_e2e: %s\nusage: xarch_e2e --workload curate|serve|mixed|sharded "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = xbench::Clock::now();
  xbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!(args.seconds > 0 && args.seconds <= 600)) return Usage("--seconds out of range");
  auto run = args.workload == "curate"    ? xbench::RunCurate
             : args.workload == "serve"   ? xbench::RunServe
             : args.workload == "mixed"   ? xbench::RunMixed
             : args.workload == "sharded" ? xbench::RunSharded
                                          : nullptr;
  if (run == nullptr) return Usage("unknown workload");

  const std::string work =
      ".bench_work/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(work);
  xbench::Reference ref;
  xbench::Tracer tracer(args.trace);
  xbench::Measures m;
  xbench::Layers layers;
  run(args, start, ref, tracer, m, layers, work);
  layers["bench.reference_us"] = ref.MedianUs();
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  if (tracer.enabled()) {
    std::filesystem::create_directories(".bench_work/traces");
    const std::string path = ".bench_work/traces/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (auto st = tracer.Write(path); !st.ok()) m.Fail(st.ToString());
    std::printf("trace: %zu spans written to %s\n", tracer.span_count(), path.c_str());
  }
  xbench::Report(args, m, ref, layers);
  return 0;
}
