// perfbench: runs one olapidx workload and prints its metrics.
//
//   perfbench --workload advise-d16|serve-dashboard|service-drift
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-file FILE]
//
// Prints one line per metric (value, unit, sample count), the wall-clock
// latency and throughput, then, as the last line, {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer ones (--trace 1). Gated times are CPU times (harness.h). The
// loop's threads never exceed the CPUs the process may run on.
// Exits 1 when an output check fails and 3 when a metric lacks the
// samples to support it (no result line then); see README.md.

#include <sched.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "harness.h"

namespace {

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "advise-d16|serve-dashboard|service-drift --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-file FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument '" + key + "'").c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "work-dir" && key != "trace-file") {
      return Usage(("unknown flag --" + key).c_str());
    }
  }

  perfbench::RunConfig config;
  unsigned long long seed = 0;
  unsigned long long seconds = 0;
  if (!ParseUnsigned(args["seed"], &seed)) return Usage("--seed N required");
  if (!ParseUnsigned(args["seconds"], &seconds) || seconds == 0 ||
      seconds > 3600) {
    return Usage("--seconds must be in [1, 3600]");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  config.seed = seed;
  config.seconds = static_cast<double>(seconds);
  config.trace = args["trace"] == "1";
  config.threads = AvailableCpus();
  if (args.count("work-dir") != 0) config.work_dir = args["work-dir"];
  // Size the library's shared pool (common/thread_pool.h) before anything
  // creates it, so pools the workloads do not size themselves respect the
  // thread ceiling too.
  setenv("OLAPIDX_THREADS", std::to_string(config.threads).c_str(), 1);

  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args["workload"], config);
  if (workload == nullptr) {
    return Usage(("unknown workload '" + args["workload"] + "'").c_str());
  }

  std::printf("workload %s, seed %llu, %llu s, trace %d, %zu threads\n",
              workload->name(), seed, seconds, config.trace ? 1 : 0,
              config.threads);
  perfbench::RunReport report = perfbench::RunWorkload(*workload, config);

  for (const perfbench::Metric& m : report.metrics) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const perfbench::Metric& m : report.wall) {
    const std::string n =
        m.samples > 0 ? "n=" + std::to_string(m.samples) + ", " : "";
    std::printf("  %-36s %14.6g %-8s (%swall clock, not in the result)\n",
                m.name.c_str(), m.value, m.unit.c_str(), n.c_str());
  }
  std::printf("  %llu attempted, %llu failed (latency samples are %s)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              workload->sample_unit());
  for (const auto& [kind, counts] : report.ops) {
    std::printf("    %-14s %llu attempted, %llu failed\n", kind.c_str(),
                static_cast<unsigned long long>(counts.attempted),
                static_cast<unsigned long long>(counts.failed));
  }
  if (config.trace && args.count("trace-file") != 0) {
    if (!perfbench::WriteSpans(report.spans, args["trace-file"])) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args["trace-file"].c_str());
      return 4;
    }
    std::printf("  %zu spans written to %s\n", report.spans.size(),
                args["trace-file"].c_str());
  }
  if (!report.correct) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    std::printf("%s\n", perfbench::ResultJson(report).c_str());
    std::fflush(stdout);
    return 1;
  }
  if (!report.missing.empty()) {
    for (const std::string& missing : report.missing) {
      std::fprintf(stderr, "error: missing %s: too few samples\n",
                   missing.c_str());
    }
    return 3;
  }
  std::printf("%s\n", perfbench::ResultJson(report).c_str());
  return 0;
}
