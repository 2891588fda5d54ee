// Tests of the benchmark's own helpers. Exits non-zero on the first
// failed check.
//
//   .bench_build/pawsbench/pawsbench_selftest
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pawsbench;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailPercentileRefusesThinTails() {
  // p99 of 1000 samples: rank 990, 10 beyond -> reported.
  const auto p99 = TailPercentile(Ramp(1000), 0.99);
  Check(p99.has_value() && *p99 == 990.0, "p99 of 1000 samples is 990");
  // p99 of 999 samples: rank 990, 9 beyond -> refused.
  Check(!TailPercentile(Ramp(999), 0.99).has_value(),
        "p99 of 999 samples is refused");
  // p90 of 100: rank 90, 10 beyond -> reported; of 99: 9 beyond -> refused.
  const auto p90 = TailPercentile(Ramp(100), 0.90);
  Check(p90.has_value() && *p90 == 90.0, "p90 of 100 samples is 90");
  Check(!TailPercentile(Ramp(99), 0.90).has_value(),
        "p90 of 99 samples is refused");
  Check(!TailPercentile({}, 0.5).has_value(), "empty sample is refused");
  Check(Median(Ramp(5)) == 3.0 && Median(Ramp(4)) == 2.0, "median");
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) is clipped to [90,100). Self = 100 - 40 - 10 = 50.
  // Grandchild [12,14) of child 1 does not count against the root.
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(20, 50, 0),
      MakeSpan(90, 120, 0), MakeSpan(12, 14, 1), MakeSpan(200, 210, -1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Check(self[0] == 50, "root self time with overlapping + clipped children");
  Check(self[1] == 18, "child self time minus its grandchild");
  Check(self[2] == 30 && self[3] == 30 && self[4] == 2, "leaf self times");
  Check(self[5] == 10, "second root is independent");
  // Disjoint children are summed.
  const std::vector<Span> disjoint = {MakeSpan(0, 10, -1), MakeSpan(1, 3, 0),
                                      MakeSpan(5, 9, 0)};
  Check(SelfTimesNs(disjoint)[0] == 4, "disjoint children");
}

void TestStreamsAreDeterministic() {
  for (Workload w : {Workload::kHotMaps, Workload::kColdTiles,
                     Workload::kPlanPatrol}) {
    const StreamShape shape{8, 44, 6};
    OpStream a(w, shape, 42, 0), b(w, shape, 42, 0), c(w, shape, 43, 0),
        d(w, shape, 42, 1);
    bool same = true, differs_by_seed = false, differs_by_stream = false;
    int writes_on_reader = 0;
    for (int i = 0; i < 5000; ++i) {
      const Op x = a.Next();
      same &= x == b.Next();
      differs_by_seed |= !(x == c.Next());
      const Op y = d.Next();
      differs_by_stream |= !(x == y);
      writes_on_reader += IsWrite(y.kind) ? 1 : 0;
    }
    Check(same, "same seed and stream give the same sequence");
    Check(differs_by_seed, "another seed gives another sequence");
    Check(differs_by_stream, "another stream gives another sequence");
    Check(writes_on_reader == 0, "only stream 0 writes");
  }
  // plan_patrol covers the whole menu in every pass.
  OpStream plans(Workload::kPlanPatrol, {3, 44, 1}, 7, 1);
  std::vector<int> seen(44, 0);
  for (int i = 0; i < 44; ++i) ++seen[plans.Next().item];
  bool each_once = true;
  for (int n : seen) each_once &= n == 1;
  Check(each_once, "a plan pass visits each menu item once");
}

void TestHash() {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  Check(HashVector(a) == HashVector(b), "equal bytes hash equal");
  b[2] = 3.0000000000000004;
  Check(HashVector(a) != HashVector(b), "one-ulp change changes the hash");
  Check(SameBits(a, a) && !SameBits(a, b) && !SameBits(0.0, -0.0),
        "bitwise equality");
}

}  // namespace

int main() {
  TestTailPercentileRefusesThinTails();
  TestSelfTime();
  TestStreamsAreDeterministic();
  TestHash();
  if (g_failures == 0) std::printf("pawsbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
