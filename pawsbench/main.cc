// pawsbench: the PAWS serving benchmark. Starts an in-process ParkServer,
// drives it over loopback from the same process and prints one JSON result
// line last (see README.md in this directory).
//
//   pawsbench --workload hot_maps|cold_tiles|plan_patrol --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  const int64_t process_start_ns = pawsbench::NowNs();
  // Every model call in the process runs serially, snapshots loaded from
  // the wire included (their parallelism resolves from this variable).
  setenv("PAWS_NUM_THREADS", "1", 1);

  pawsbench::RunOptions options;
  options.process_start_ns = process_start_ns;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      const auto workload = pawsbench::ParseWorkload(argv[++i]);
      if (!workload) {
        std::fprintf(stderr, "pawsbench: unknown workload %s\n", argv[i]);
        return 2;
      }
      options.workload = *workload;
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_value) {
      options.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload hot_maps|cold_tiles|plan_patrol "
                   "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "pawsbench: --workload and --seconds > 0 required\n");
    return 2;
  }

  const pawsbench::RunReport report = pawsbench::RunBenchmark(options);
  std::string metrics;
  for (const pawsbench::Metric& m : report.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
