// The three serving workloads and the two run modes (timed closed loop,
// traced replay) behind the pawsbench command.
#ifndef PAWSBENCH_WORKLOADS_H_
#define PAWSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace pawsbench {

struct RunOptions {
  Workload workload = Workload::kHotMaps;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_path;
  /// NowNs() at process start; the first set-up is timed from here.
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload in the mode `options.trace` selects. Config records
/// and diagnostics go to stdout as text lines; the caller prints the
/// final JSON line.
RunReport RunBenchmark(const RunOptions& options);

}  // namespace pawsbench

#endif  // PAWSBENCH_WORKLOADS_H_
