// Helpers of the serving benchmark that carry no PAWS serving logic:
// percentile selection, span recording and self time, the seeded request
// streams, answer hashing and process probes. Kept apart from the
// workloads so pawsbench_selftest can check them in isolation.
#ifndef PAWSBENCH_BENCH_UTIL_H_
#define PAWSBENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pawsbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// ------------------------------------------------------------ percentiles

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond its rank, so one outlier cannot set it.
constexpr int kMinTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `samples`: the sorted value at
/// index ceil(q * n) - 1. Returns nullopt when fewer than kMinTailSamples
/// samples sit above that index.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// Median (lower middle for even n); 0 for an empty sample.
double Median(std::vector<double> samples);

// ------------------------------------------------------------------ spans

/// One timed interval at a layer boundary. `parent` indexes the span that
/// caused it (-1 for a root); spans of one request share `request_id`.
/// `work` is an optional size the span processed (cells, bytes).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request_id = 0;
  int64_t work = 0;
};

/// In-memory span store, written out only at exit. Thread-safe: the
/// server's worker threads record `serve.handle` spans concurrently with
/// the client thread. The "current" parent/request let the server-side
/// handler attach its span to the client call that caused it; the traced
/// replay is strictly sequential, so one current call exists at a time.
class SpanRecorder {
 public:
  int Begin(const char* name, int parent, uint64_t request_id);
  void End(int id, int64_t work = 0);
  std::vector<Span> spans() const;

  void set_current(int parent, uint64_t request_id) {
    current_request_.store(request_id);
    current_parent_.store(parent);
  }
  int current_parent() const { return current_parent_.load(); }
  uint64_t current_request() const { return current_request_.load(); }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int> current_parent_{-1};
  std::atomic<uint64_t> current_request_{0};
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes spans as JSON lines; returns false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ------------------------------------------------------- request streams

enum class Workload { kHotMaps, kColdTiles, kPlanPatrol };

/// Parses "hot_maps" | "cold_tiles" | "plan_patrol".
std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

enum class OpKind : uint8_t {
  kRiskMap,
  kRiskTile,
  kCellCurves,
  kStats,
  kRollout,
  kUpdateCoverage,
  kPlan,
};

bool IsWrite(OpKind kind);

/// One closed-loop operation, as indices into the workload's menus:
/// `park` into its parks, `item` into its tiles / curve sets / plan menu,
/// `effort` into its effort menu.
struct Op {
  OpKind kind = OpKind::kRiskMap;
  int park = 0;
  int item = 0;
  int effort = 0;

  bool operator==(const Op& other) const {
    return kind == other.kind && park == other.park && item == other.item &&
           effort == other.effort;
  }
};

/// Menu sizes the stream draws from.
struct StreamShape {
  int num_parks = 1;
  int num_items = 1;
  int num_efforts = 1;
};

/// Stream 0's writes come at a fixed cadence rather than by coin flip, so
/// every run holds the same share of writes and of reads overlapping them.
constexpr int kHotWriteEvery = 250;
constexpr int kColdWriteEvery = 25;

/// The seeded, endless request sequence of one connection. Stream 0 is
/// the workload's only writer, so writes never contend with each other.
///  - hot_maps: Zipf(1.1) over parks; 80% RiskMap, 10% RiskTile, 8%
///    CellCurves, 2% Stats; every 250th op of stream 0 is a rollout
///    (~0.2% overall).
///  - cold_tiles: uniform RiskTile over (tile, effort); every 25th op of
///    stream 0 is a coverage write (~2% overall).
///  - plan_patrol: passes over a fresh permutation of the plan menu, so
///    every run carries nearly the same mix; stream 0 follows each plan
///    with one coverage write to the unplanned intake park.
class OpStream {
 public:
  OpStream(Workload workload, StreamShape shape, uint64_t seed, int stream);
  Op Next();

 private:
  Workload workload_;
  StreamShape shape_;
  bool writer_;
  paws::Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<int> pass_;
  size_t pass_pos_ = 0;
  bool write_due_ = false;
  uint64_t ops_ = 0;
};

// ----------------------------------------------------------------- misc

/// 64-bit hash of raw bytes (word-at-a-time multiply-xorshift): the
/// fingerprint large answers are compared by against ground truth.
uint64_t HashBytes(const void* data, size_t n, uint64_t seed = 0);
template <typename T>
uint64_t HashVector(const std::vector<T>& v, uint64_t seed = 0) {
  return HashBytes(v.data(), v.size() * sizeof(T), seed);
}

/// Bitwise equality of two double vectors (NaN-safe, -0.0 != 0.0).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);
bool SameBits(double a, double b);

/// VmHWM of this process in MiB; 0 when unavailable.
double PeakRssMb();
/// Current thread count of this process; 0 when unavailable.
int ThreadCount();
/// User + system CPU time of this process in ms.
double CpuMs();

}  // namespace pawsbench

#endif  // PAWSBENCH_BENCH_UTIL_H_
