#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(SimplexTest, SolvesTextbookTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum: x = 2, y = 6, objective = 36 (classic Dantzig example).
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 3.0, "x");
  const int y = lp.AddVariable(0.0, kLpInfinity, 5.0, "y");
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.AddConstraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.AddConstraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 36.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 2.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 6.0, 1e-6);
}

TEST(SimplexTest, HandlesEqualityConstraints) {
  // max x + 2y s.t. x + y = 10, x - y >= 2. Optimum x = 6, y = 4 -> 14.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  const int y = lp.AddVariable(0.0, kLpInfinity, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 10.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kGreaterEqual, 2.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 14.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 6.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 4.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  const int y = lp.AddVariable(0.0, kLpInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 1.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableUpperBounds) {
  // max x + y s.t. x + y <= 10, x <= 3, y <= 4 (as bounds). Optimum 7.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 3.0, 1.0);
  const int y = lp.AddVariable(0.0, 4.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 7.0, 1e-6);
}

TEST(SimplexTest, HandlesNegativeLowerBounds) {
  // max -x s.t. x >= -5 (bound). Optimum x = -5.
  LinearProgram lp;
  const int x = lp.AddVariable(-5.0, 5.0, -1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 5.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->values[x], -5.0, 1e-6);
  EXPECT_NEAR(sol->objective, 5.0, 1e-6);
}

TEST(SimplexTest, SolvesDegenerateLpWithoutCycling) {
  // Beale's classic cycling example (cycles under naive Dantzig pivoting).
  // min -0.75x4 + 150x5 - 0.02x6 + 6x7 -> maximize the negation.
  LinearProgram lp;
  const int x4 = lp.AddVariable(0.0, kLpInfinity, 0.75);
  const int x5 = lp.AddVariable(0.0, kLpInfinity, -150.0);
  const int x6 = lp.AddVariable(0.0, kLpInfinity, 0.02);
  const int x7 = lp.AddVariable(0.0, kLpInfinity, -6.0);
  lp.AddConstraint({{x4, 0.25}, {x5, -60.0}, {x6, -1.0 / 25.0}, {x7, 9.0}},
                   Relation::kLessEqual, 0.0);
  lp.AddConstraint({{x4, 0.5}, {x5, -90.0}, {x6, -1.0 / 50.0}, {x7, 3.0}},
                   Relation::kLessEqual, 0.0);
  lp.AddConstraint({{x6, 1.0}}, Relation::kLessEqual, 1.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 0.05, 1e-6);
}

// --- Property suite: fractional-knapsack LPs have a closed-form greedy
// optimum, so we can verify the simplex against it exactly. ---

struct KnapsackCase {
  uint64_t seed;
  int num_items;
};

class SimplexKnapsackTest : public ::testing::TestWithParam<KnapsackCase> {};

TEST_P(SimplexKnapsackTest, MatchesGreedyFractionalKnapsack) {
  const KnapsackCase param = GetParam();
  Rng rng(param.seed);
  const int n = param.num_items;
  std::vector<double> value(n), weight(n), cap(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(0.1, 10.0);
    weight[i] = rng.Uniform(0.5, 3.0);
    cap[i] = rng.Uniform(0.2, 2.0);
  }
  double budget = 0.0;
  for (int i = 0; i < n; ++i) budget += weight[i] * cap[i];
  budget *= 0.4;  // binding budget

  LinearProgram lp;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < n; ++i) {
    const int v = lp.AddVariable(0.0, cap[i], value[i]);
    terms.emplace_back(v, weight[i]);
  }
  lp.AddConstraint(terms, Relation::kLessEqual, budget);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);

  // Greedy closed form: fill items by value density.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double remaining = budget, greedy = 0.0;
  for (int i : order) {
    const double take = std::min(cap[i], remaining / weight[i]);
    greedy += take * value[i];
    remaining -= take * weight[i];
    if (remaining <= 1e-12) break;
  }
  EXPECT_NEAR(sol->objective, greedy, 1e-6 * (1.0 + std::fabs(greedy)));
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexKnapsackTest,
                         ::testing::Values(KnapsackCase{1, 3},
                                           KnapsackCase{2, 8},
                                           KnapsackCase{3, 20},
                                           KnapsackCase{4, 50},
                                           KnapsackCase{5, 100},
                                           KnapsackCase{17, 13},
                                           KnapsackCase{99, 64}));

// --- Property suite: random LPs with a feasible point by construction.
// The solver must never report infeasibility, and its solution must be
// feasible and at least as good as the known point. ---

class SimplexRandomLpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexRandomLpTest, FeasibleAndDominatesKnownPoint) {
  Rng rng(GetParam());
  const int n = 4 + rng.UniformInt(10);
  const int m = 3 + rng.UniformInt(8);

  // Construct a known interior point and make every constraint hold there.
  std::vector<double> x0(n);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.Uniform(-2.0, 0.0);
    const double hi = lo + rng.Uniform(0.5, 4.0);
    x0[j] = rng.Uniform(lo, hi);
    lp.AddVariable(lo, hi, rng.Uniform(-1.0, 1.0));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.5) continue;
      const double a = rng.Uniform(-2.0, 2.0);
      terms.emplace_back(j, a);
      lhs += a * x0[j];
    }
    if (terms.empty()) continue;
    if (rng.Uniform() < 0.5) {
      lp.AddConstraint(terms, Relation::kLessEqual, lhs + rng.Uniform(0.0, 2.0));
    } else {
      lp.AddConstraint(terms, Relation::kGreaterEqual,
                       lhs - rng.Uniform(0.0, 2.0));
    }
  }

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
  EXPECT_GE(sol->objective, lp.ObjectiveValue(x0) - 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLpTest,
                         ::testing::Range<uint64_t>(1, 40));

// --- Warm re-solves against the cold solver. ---

// A random LP with a known feasible point: boxed columns, [0, 1] columns,
// and free columns held to [-3, 3] by rows rather than bounds. Some rows
// are tight at the point, equalities or duplicates, so vertices are
// degenerate; integer coefficients make ties common.
LinearProgram RandomBoundedLp(Rng* rng) {
  const int n = 4 + rng->UniformInt(10);
  const int m = 3 + rng->UniformInt(8);
  LinearProgram lp;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double kind = rng->Uniform();
    double lo = 0.0, hi = 1.0;
    if (kind < 0.15) {
      lo = -kLpInfinity;
      hi = kLpInfinity;
      x0[j] = rng->Uniform(-1.0, 1.0);
    } else if (kind < 0.45) {
      x0[j] = rng->Uniform();
    } else {
      lo = rng->Uniform(-2.0, 0.0);
      hi = lo + rng->Uniform(0.5, 4.0);
      x0[j] = rng->Uniform(lo, hi);
    }
    const double c = rng->Uniform() < 0.3 ? static_cast<double>(
                                                rng->UniformInt(3) - 1)
                                          : rng->Uniform(-1.0, 1.0);
    lp.AddVariable(lo, hi, c);
  }
  for (int j = 0; j < n; ++j) {
    if (lp.lower(j) > -kLpInfinity) continue;
    lp.AddConstraint({{j, 1.0}}, Relation::kLessEqual, 3.0);
    lp.AddConstraint({{j, 1.0}}, Relation::kGreaterEqual, -3.0);
  }
  std::vector<std::pair<int, double>> last;
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng->Uniform() < 0.5) continue;
      const double a = rng->Uniform() < 0.5
                           ? static_cast<double>(rng->UniformInt(5) - 2)
                           : rng->Uniform(-2.0, 2.0);
      if (a != 0.0) terms.emplace_back(j, a);
    }
    if (terms.empty()) continue;
    if (!last.empty() && rng->Uniform() < 0.15) terms = last;  // duplicate
    double lhs = 0.0;
    for (const auto& [j, a] : terms) lhs += a * x0[j];
    const double kind = rng->Uniform();
    const double slack = rng->Uniform() < 0.3 ? 0.0 : rng->Uniform(0.0, 2.0);
    if (kind < 0.15) {
      lp.AddConstraint(terms, Relation::kEqual, lhs);
    } else if (kind < 0.6) {
      lp.AddConstraint(terms, Relation::kLessEqual, lhs + slack);
    } else {
      lp.AddConstraint(terms, Relation::kGreaterEqual, lhs - slack);
    }
    last = terms;
  }
  return lp;
}

// `lp` with other column bounds, for the cold reference.
LinearProgram WithBounds(const LinearProgram& lp,
                         const std::vector<double>& lower,
                         const std::vector<double>& upper) {
  LinearProgram out = lp;
  for (int j = 0; j < lp.num_variables(); ++j) {
    out.SetBounds(j, lower[j], upper[j]);
  }
  return out;
}

class SimplexWarmStartTest : public ::testing::TestWithParam<uint64_t> {};

// Branch-and-bound-shaped sequences: each step tightens one bound of the
// last feasible LP (a fixing to [0, 0] / [1, 1], or a cut just past the
// current value of a basic or nonbasic column) and re-solves warm from that
// LP's basis, or every third step from the root's. Infeasible children are
// dropped, as branch and bound prunes them. Each warm answer must match a
// cold SolveLp of the same LP.
TEST_P(SimplexWarmStartTest, MatchesColdSolveAlongTighteningSequences) {
  Rng rng(GetParam());
  const LinearProgram lp = RandomBoundedLp(&rng);
  const int n = lp.num_variables();
  SimplexSolver solver(lp);
  auto root = solver.Solve();
  ASSERT_TRUE(root.ok()) << root.status();
  ASSERT_EQ(root->status, SolveStatus::kOptimal);
  const SimplexBasis root_basis = solver.basis();

  std::vector<double> lower(n), upper(n);
  for (int j = 0; j < n; ++j) {
    lower[j] = lp.lower(j);
    upper[j] = lp.upper(j);
  }
  SimplexBasis parent = root_basis;
  std::vector<double> values = root->values;
  for (int step = 0; step < 16; ++step) {
    const int j = rng.UniformInt(n);
    std::vector<double> lo = lower, hi = upper;
    if (lower[j] == 0.0 && upper[j] == 1.0 && rng.Uniform() < 0.6) {
      lo[j] = hi[j] = rng.Uniform() < 0.5 ? 0.0 : 1.0;
    } else {
      const double cut = rng.Uniform() < 0.2 ? 0.0 : rng.Uniform(0.0, 0.6);
      if (rng.Uniform() < 0.5) {
        hi[j] = values[j] - cut;
      } else {
        lo[j] = values[j] + cut;
      }
      if (lo[j] > hi[j]) continue;
    }
    const bool from_root = step % 3 == 2;
    auto warm = solver.Resolve(from_root ? root_basis : parent, lo, hi);
    ASSERT_TRUE(warm.ok()) << warm.status();
    const LinearProgram child = WithBounds(lp, lo, hi);
    auto cold = SolveLp(child);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_EQ(warm->status, cold->status) << "step " << step;
    if (cold->status != SolveStatus::kOptimal) continue;
    EXPECT_NEAR(warm->objective, cold->objective,
                1e-7 * (1.0 + std::fabs(cold->objective)))
        << "step " << step;
    EXPECT_LE(child.MaxViolation(warm->values), 1e-6) << "step " << step;
    lower = lo;
    upper = hi;
    parent = solver.basis();
    values = warm->values;
  }
  // Loosening back to the root bounds from the last basis: its columns at
  // a tightened bound may now sit on the wrong side for their reduced cost.
  std::vector<double> root_lower(n), root_upper(n);
  for (int j = 0; j < n; ++j) {
    root_lower[j] = lp.lower(j);
    root_upper[j] = lp.upper(j);
  }
  auto loosened = solver.Resolve(parent, root_lower, root_upper);
  ASSERT_TRUE(loosened.ok()) << loosened.status();
  ASSERT_EQ(loosened->status, SolveStatus::kOptimal);
  EXPECT_NEAR(loosened->objective, root->objective,
              1e-7 * (1.0 + std::fabs(root->objective)));
  EXPECT_LE(lp.MaxViolation(loosened->values), 1e-6);
  EXPECT_EQ(solver.cold_restarts(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexWarmStartTest,
                         ::testing::Range<uint64_t>(1, 121));

TEST(SimplexWarmStartEdgeTest, UnchangedBoundsNeedNoPivot) {
  Rng rng(5);
  const LinearProgram lp = RandomBoundedLp(&rng);
  SimplexSolver solver(lp);
  auto root = solver.Solve();
  ASSERT_TRUE(root.ok()) << root.status();
  ASSERT_EQ(root->status, SolveStatus::kOptimal);
  std::vector<double> lower, upper;
  for (int j = 0; j < lp.num_variables(); ++j) {
    lower.push_back(lp.lower(j));
    upper.push_back(lp.upper(j));
  }
  auto again = solver.Resolve(solver.basis(), lower, upper);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->status, SolveStatus::kOptimal);
  EXPECT_EQ(again->simplex_iterations, 0);
  EXPECT_NEAR(again->objective, root->objective, 1e-9);
}

TEST(SimplexWarmStartEdgeTest, RejectsMalformedInput) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 4.0, 1.0);
  const int y = lp.AddVariable(0.0, 4.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 5.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 1.0);
  SimplexSolver solver(lp);
  ASSERT_TRUE(solver.Solve().ok());
  const SimplexBasis basis = solver.basis();
  const std::vector<double> lo = {0.0, 0.0}, hi = {4.0, 4.0};
  EXPECT_FALSE(solver.Resolve(basis, {0.0}, {4.0}).ok());
  EXPECT_FALSE(solver.Resolve(basis, {3.0, 0.0}, {2.0, 4.0}).ok());
  SimplexBasis repeated = basis;
  repeated.basic = {0, 0};
  EXPECT_FALSE(solver.Resolve(repeated, lo, hi).ok());
  SimplexBasis out_of_range = basis;
  out_of_range.basic = {0, -1};
  EXPECT_FALSE(solver.Resolve(out_of_range, lo, hi).ok());
  SimplexBasis short_states = basis;
  short_states.state.pop_back();
  EXPECT_FALSE(solver.Resolve(short_states, lo, hi).ok());
  // The solver is still usable afterwards.
  auto ok = solver.Resolve(basis, lo, hi);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_NEAR(ok->objective, 5.0, 1e-9);
}

TEST(SimplexWarmStartEdgeTest, ReportsInfeasibleChildAndRecovers) {
  // x + y = 3 with x, y in [0, 2]: fixing x to 0 leaves y = 3 > 2.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 2.0, 1.0);
  const int y = lp.AddVariable(0.0, 2.0, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  SimplexSolver solver(lp);
  auto root = solver.Solve();
  ASSERT_TRUE(root.ok()) << root.status();
  ASSERT_EQ(root->status, SolveStatus::kOptimal);
  EXPECT_NEAR(root->objective, 5.0, 1e-9);
  const SimplexBasis basis = solver.basis();
  auto child = solver.Resolve(basis, {0.0, 0.0}, {0.0, 2.0});
  ASSERT_TRUE(child.ok()) << child.status();
  EXPECT_EQ(child->status, SolveStatus::kInfeasible);
  // The sibling x = 1.5 still solves from the same basis.
  auto sibling = solver.Resolve(basis, {1.5, 0.0}, {2.0, 2.0});
  ASSERT_TRUE(sibling.ok()) << sibling.status();
  ASSERT_EQ(sibling->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sibling->objective, 1.5 + 2.0 * 1.5, 1e-9);
  EXPECT_EQ(solver.cold_restarts(), 0);
}

}  // namespace
}  // namespace paws
