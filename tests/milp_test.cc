#include "solver/milp.h"

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"
#include "solver/pwl.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(MilpTest, ReducesToLpWithoutIntegers) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 4.0, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 2.5);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 2.5, 1e-6);
}

TEST(MilpTest, SolvesSmallKnapsack) {
  // Classic 0/1 knapsack: values {60, 100, 120}, weights {10, 20, 30},
  // capacity 50 -> optimum 220 (items 2 and 3).
  LinearProgram lp;
  const int a = lp.AddBinaryVariable(60.0);
  const int b = lp.AddBinaryVariable(100.0);
  const int c = lp.AddBinaryVariable(120.0);
  lp.AddConstraint({{a, 10.0}, {b, 20.0}, {c, 30.0}}, Relation::kLessEqual,
                   50.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 220.0, 1e-6);
  EXPECT_NEAR(sol->values[a], 0.0, 1e-6);
  EXPECT_NEAR(sol->values[b], 1.0, 1e-6);
  EXPECT_NEAR(sol->values[c], 1.0, 1e-6);
}

TEST(MilpTest, IntegralityChangesOptimum) {
  // max x s.t. 2x <= 3: LP gives 1.5, integer x gives 1.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 10.0, 1.0);
  lp.SetInteger(x, true);
  lp.AddConstraint({{x, 2.0}}, Relation::kLessEqual, 3.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 1.0, 1e-6);
}

TEST(MilpTest, DetectsIntegerInfeasibility) {
  // 0.4 <= x <= 0.6 with x integral has no solution.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 1.0, 1.0);
  lp.SetInteger(x, true);
  lp.AddConstraint({{x, 1.0}}, Relation::kGreaterEqual, 0.4);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 0.6);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kInfeasible);
}

TEST(MilpTest, EqualityConstrainedAssignment) {
  // 2x2 assignment problem with binaries; unique optimum.
  LinearProgram lp;
  // cost matrix [[5, 1], [2, 4]] -> maximize: pick x01 (1->2) and x10 (2->1)?
  // maximize 5a + 1b + 2c + 4d with row/col sums = 1: a+d = 9 vs b+c = 3.
  const int a = lp.AddBinaryVariable(5.0);
  const int b = lp.AddBinaryVariable(1.0);
  const int c = lp.AddBinaryVariable(2.0);
  const int d = lp.AddBinaryVariable(4.0);
  lp.AddConstraint({{a, 1.0}, {b, 1.0}}, Relation::kEqual, 1.0);
  lp.AddConstraint({{c, 1.0}, {d, 1.0}}, Relation::kEqual, 1.0);
  lp.AddConstraint({{a, 1.0}, {c, 1.0}}, Relation::kEqual, 1.0);
  lp.AddConstraint({{b, 1.0}, {d, 1.0}}, Relation::kEqual, 1.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 9.0, 1e-6);
  EXPECT_NEAR(sol->values[a], 1.0, 1e-6);
  EXPECT_NEAR(sol->values[d], 1.0, 1e-6);
}

// Property suite: random knapsacks verified against exhaustive enumeration.
class MilpKnapsackTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpKnapsackTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 4 + rng.UniformInt(9);  // 4..12 items
  std::vector<double> value(n), weight(n);
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(1.0, 10.0);
    weight[i] = rng.Uniform(1.0, 5.0);
    total_weight += weight[i];
  }
  const double cap = 0.45 * total_weight;

  LinearProgram lp;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < n; ++i) {
    terms.emplace_back(lp.AddBinaryVariable(value[i]), weight[i]);
  }
  lp.AddConstraint(terms, Relation::kLessEqual, cap);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);

  // Brute force over all subsets.
  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        v += value[i];
        w += weight[i];
      }
    }
    if (w <= cap) best = std::max(best, v);
  }
  EXPECT_NEAR(sol->objective, best, 1e-6);
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
  // All binaries integral.
  for (const auto& [var, coef] : terms) {
    (void)coef;
    const double x = sol->values[var];
    EXPECT_NEAR(x, std::round(x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpKnapsackTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(MilpTest, NodeLimitReturnsIncumbentWithGap) {
  // A knapsack big enough to need branching, with a 2-node budget.
  Rng rng(99);
  LinearProgram lp;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 25; ++i) {
    terms.emplace_back(lp.AddBinaryVariable(rng.Uniform(1.0, 10.0)),
                       rng.Uniform(1.0, 5.0));
  }
  lp.AddConstraint(terms, Relation::kLessEqual, 30.0);
  MilpOptions options;
  options.max_nodes = 2;
  auto sol = SolveMilp(lp, options);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Either proven optimal fast (rounding heuristic) or limited with a gap.
  if (sol->status == SolveStatus::kFeasibleLimit) {
    EXPECT_GE(sol->gap, 0.0);
  } else {
    EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  }
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
}

// --- SolveMilp (warm-started nodes) against a cold-start reference branch
// and bound and against brute force over the SOS2 segment choices. ---

struct PwlModel {
  LinearProgram lp;
  std::vector<PwlTermHandle> terms;
};

// The PwlMilpPropertyTest model: two non-concave PWL terms over [0, 3]
// under a shared budget.
PwlModel SeparablePwlModel(uint64_t seed) {
  Rng rng(seed);
  std::vector<PiecewiseLinear> fns;
  for (int d = 0; d < 2; ++d) {
    std::vector<double> ys;
    for (int i = 0; i < 4; ++i) ys.push_back(rng.Uniform(0.0, 2.0));
    fns.emplace_back(std::vector<double>{0.0, 1.0, 2.0, 3.0}, ys);
  }
  const double budget = rng.Uniform(2.0, 4.0);
  PwlModel model;
  std::vector<std::pair<int, double>> budget_terms;
  for (int d = 0; d < 2; ++d) {
    const int x = model.lp.AddVariable(0.0, 3.0, 0.0);
    budget_terms.emplace_back(x, 1.0);
    model.terms.push_back(AddPwlObjectiveTerm(&model.lp, x, fns[d], 1.0));
  }
  model.lp.AddConstraint(budget_terms, Relation::kLessEqual, budget);
  return model;
}

// A patrol-planning MILP in the planner's shape: K unit flows over a
// time-unrolled 3x3 grid (self-loops allowed) that leave the centre post at
// t = 0 and are back at t = horizon - 1, coverage c_v = K * visits of v,
// and a random non-concave PWL utility of c_v for the post and its four
// neighbours.
PwlModel GridPlanningModel(uint64_t seed) {
  Rng rng(seed);
  constexpr int kSide = 3, kHorizon = 4, kPost = 4;
  const double k = 1.0 + rng.UniformInt(2);
  const double cap = kHorizon * k;
  std::vector<std::vector<int>> neighbors(kSide * kSide);
  for (int v = 0; v < kSide * kSide; ++v) {
    const int r = v / kSide, c = v % kSide;
    neighbors[v].push_back(v);
    if (r > 0) neighbors[v].push_back(v - kSide);
    if (r + 1 < kSide) neighbors[v].push_back(v + kSide);
    if (c > 0) neighbors[v].push_back(v - 1);
    if (c + 1 < kSide) neighbors[v].push_back(v + 1);
  }
  PwlModel model;
  struct Edge {
    int t, from, to, var;
  };
  std::vector<Edge> edges;
  for (int t = 0; t + 1 < kHorizon; ++t) {
    for (int u = 0; u < kSide * kSide; ++u) {
      if (t == 0 && u != kPost) continue;
      for (int v : neighbors[u]) {
        if (t + 2 == kHorizon && v != kPost) continue;
        edges.push_back({t, u, v, model.lp.AddVariable(0.0, 1.0, 0.0)});
      }
    }
  }
  std::vector<std::pair<int, double>> out0, in_last;
  for (const Edge& e : edges) {
    if (e.t == 0) out0.emplace_back(e.var, 1.0);
    if (e.t + 2 == kHorizon) in_last.emplace_back(e.var, 1.0);
  }
  model.lp.AddConstraint(out0, Relation::kEqual, 1.0);
  model.lp.AddConstraint(in_last, Relation::kEqual, 1.0);
  for (int t = 1; t + 1 < kHorizon; ++t) {
    for (int v = 0; v < kSide * kSide; ++v) {
      std::vector<std::pair<int, double>> terms;
      for (const Edge& e : edges) {
        if (e.t == t - 1 && e.to == v) terms.emplace_back(e.var, 1.0);
        if (e.t == t && e.from == v) terms.emplace_back(e.var, -1.0);
      }
      if (!terms.empty()) model.lp.AddConstraint(terms, Relation::kEqual, 0.0);
    }
  }
  for (int v : neighbors[kPost]) {
    const int c = model.lp.AddVariable(0.0, cap, 0.0);
    std::vector<std::pair<int, double>> terms = {{c, 1.0}};
    for (const Edge& e : edges) {
      if (e.to == v) terms.emplace_back(e.var, -k);
    }
    model.lp.AddConstraint(terms, Relation::kEqual, v == kPost ? k : 0.0);
    std::vector<double> ys = {0.0};
    for (int i = 0; i < 3; ++i) ys.push_back(ys.back() + rng.Uniform(0.0, 1.0));
    model.terms.push_back(AddPwlObjectiveTerm(
        &model.lp, c, PiecewiseLinear({0.0, cap / 3, 2 * cap / 3, cap}, ys),
        rng.Uniform(0.5, 1.5)));
  }
  return model;
}

// Cold-start reference: depth-first branch and bound that solves every
// node from scratch with SolveLp, branching on the first fractional
// integer variable. Returns the optimum, or -inf if infeasible.
double ColdBranchAndBound(const LinearProgram& lp, double best) {
  auto sol = SolveLp(lp);
  EXPECT_TRUE(sol.ok()) << sol.status();
  if (!sol.ok() || sol->status != SolveStatus::kOptimal ||
      sol->objective <= best) {
    return best;
  }
  int frac = -1;
  for (int j = 0; j < lp.num_variables() && frac < 0; ++j) {
    const double x = sol->values[j];
    if (lp.is_integer(j) && std::fabs(x - std::round(x)) > 1e-6) frac = j;
  }
  if (frac < 0) return sol->objective;
  const double x = sol->values[frac];
  LinearProgram down = lp, up = lp;
  down.SetBounds(frac, lp.lower(frac), std::floor(x));
  up.SetBounds(frac, std::ceil(x), lp.upper(frac));
  best = ColdBranchAndBound(down, best);
  return ColdBranchAndBound(up, best);
}

// Brute force: one LP per choice of active segment in every PWL term.
double BruteForceSegments(const PwlModel& model) {
  double best = -kLpInfinity;
  std::vector<size_t> choice(model.terms.size(), 0);
  while (true) {
    LinearProgram fixed = model.lp;
    for (size_t t = 0; t < model.terms.size(); ++t) {
      const auto& segs = model.terms[t].segment_vars;
      for (size_t s = 0; s < segs.size(); ++s) {
        const double v = s == choice[t] ? 1.0 : 0.0;
        fixed.SetBounds(segs[s], v, v);
      }
    }
    auto sol = SolveLp(fixed);
    EXPECT_TRUE(sol.ok()) << sol.status();
    if (sol.ok() && sol->status == SolveStatus::kOptimal) {
      best = std::max(best, sol->objective);
    }
    // Next choice; a concave term has no segment binaries, so one choice.
    size_t t = 0;
    while (t < choice.size() &&
           ++choice[t] >=
               std::max<size_t>(1, model.terms[t].segment_vars.size())) {
      choice[t++] = 0;
    }
    if (t == choice.size()) return best;
  }
}

void ExpectWarmMatchesColdReferences(const PwlModel& model) {
  MilpOptions options;
  auto sol = SolveMilp(model.lp, options);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_LE(model.lp.MaxViolation(sol->values), 1e-6);
  const double cold = ColdBranchAndBound(model.lp, -kLpInfinity);
  const double brute = BruteForceSegments(model);
  EXPECT_NEAR(cold, brute, 1e-9);
  EXPECT_NEAR(sol->objective, cold, options.absolute_gap_tolerance);
}

class MilpWarmStartTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpWarmStartTest, PwlModelMatchesColdBranchAndBound) {
  ExpectWarmMatchesColdReferences(SeparablePwlModel(GetParam()));
}

TEST_P(MilpWarmStartTest, PlanningModelMatchesColdBranchAndBound) {
  ExpectWarmMatchesColdReferences(GridPlanningModel(GetParam()));
}

// The PwlMilpPropertyTest seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, MilpWarmStartTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace paws
