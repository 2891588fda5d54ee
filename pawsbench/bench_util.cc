#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace pawsbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<size_t>(rank, 1);
  const size_t beyond = n - rank;
  if (beyond < static_cast<size_t>(kMinTailSamples)) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

int SpanRecorder::Begin(const char* name, int parent, uint64_t request_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id, int64_t work) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
  spans_[id].work = work;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || span.parent >= static_cast<int>(spans.size())) {
      continue;
    }
    const Span& parent = spans[span.parent];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[span.parent].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                 "\"work\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.work));
  }
  return std::fclose(f) == 0;
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "hot_maps") return Workload::kHotMaps;
  if (name == "cold_tiles") return Workload::kColdTiles;
  if (name == "plan_patrol") return Workload::kPlanPatrol;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHotMaps:
      return "hot_maps";
    case Workload::kColdTiles:
      return "cold_tiles";
    case Workload::kPlanPatrol:
      return "plan_patrol";
  }
  return "?";
}

bool IsWrite(OpKind kind) {
  return kind == OpKind::kRollout || kind == OpKind::kUpdateCoverage;
}

OpStream::OpStream(Workload workload, StreamShape shape, uint64_t seed,
                   int stream)
    : workload_(workload),
      shape_(shape),
      writer_(stream == 0),
      rng_(seed * 0x9E3779B97F4A7C15ull + 0x51ED270B27ull * (stream + 1)) {
  double total = 0.0;
  for (int k = 0; k < shape_.num_parks; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

Op OpStream::Next() {
  Op op;
  switch (workload_) {
    case Workload::kHotMaps: {
      const double u = rng_.Uniform();
      op.park = static_cast<int>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      op.park = std::min(op.park, shape_.num_parks - 1);
      op.effort = rng_.UniformInt(shape_.num_efforts);
      op.item = rng_.UniformInt(shape_.num_items);
      if (writer_ && ++ops_ % kHotWriteEvery == 0) {
        op.kind = OpKind::kRollout;
        op.park = shape_.num_parks - 1;
      } else {
        const double read = rng_.Uniform();
        op.kind = read < 0.80   ? OpKind::kRiskMap
                  : read < 0.90 ? OpKind::kRiskTile
                  : read < 0.98 ? OpKind::kCellCurves
                                : OpKind::kStats;
      }
      return op;
    }
    case Workload::kColdTiles: {
      op.item = rng_.UniformInt(shape_.num_items);
      op.effort = rng_.UniformInt(shape_.num_efforts);
      op.kind = writer_ && ++ops_ % kColdWriteEvery == 0
                    ? OpKind::kUpdateCoverage
                    : OpKind::kRiskTile;
      return op;
    }
    case Workload::kPlanPatrol: {
      if (writer_ && write_due_) {
        write_due_ = false;
        op.kind = OpKind::kUpdateCoverage;
        return op;
      }
      if (pass_pos_ == pass_.size()) {
        pass_ = rng_.Permutation(shape_.num_items);
        pass_pos_ = 0;
      }
      op.kind = OpKind::kPlan;
      op.item = pass_[pass_pos_++];
      write_due_ = true;
      return op;
    }
  }
  return op;
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (0x9E3779B97F4A7C15ull * (n + 1));
  auto mix = [&h](uint64_t w) {
    h ^= w;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    mix(w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  mix(tail ^ (static_cast<uint64_t>(n - i) << 56));
  h ^= h >> 29;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 32);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {

// The number after `key` in /proc/self/status; 0 when absent.
double ProcStatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double value = 0.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::atof(line + key_len);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

double PeakRssMb() { return ProcStatusField("VmHWM:") / 1024.0; }

int ThreadCount() { return static_cast<int>(ProcStatusField("Threads:")); }

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

}  // namespace pawsbench
