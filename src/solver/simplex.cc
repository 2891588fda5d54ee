#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace paws {

namespace {

constexpr double kPivotEps = 1e-9;
// Smallest |entry| re-installing a basis pivots on; below it the tableau is
// refactored from A instead.
constexpr double kRebasisPivotEps = 1e-7;

bool IsFinite(double bound) { return std::fabs(bound) < kLpInfinity * 0.99; }

}  // namespace

SimplexSolver::SimplexSolver(const LinearProgram& lp,
                             const SimplexOptions& options)
    : lp_(lp), options_(options) {
  m_ = lp_.num_constraints();
  n_struct_ = lp_.num_variables();
  int n_slack = 0;
  for (int i = 0; i < m_; ++i) {
    if (lp_.relation(i) != Relation::kEqual) ++n_slack;
  }
  first_artificial_ = n_struct_ + n_slack;
  n_ = first_artificial_ + m_;

  lower_.assign(n_, 0.0);
  upper_.assign(n_, kLpInfinity);
  cost_.assign(n_, 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    lower_[j] = lp_.lower(j);
    upper_[j] = lp_.upper(j);
    cost_[j] = lp_.objective(j);
  }
}

// Fills the tableau with [A | slacks | I | b]: one slack per inequality
// row and one +1 artificial per row, with an artificial basis.
void SimplexSolver::LoadStandardForm() {
  tableau_ = Matrix(m_, n_ + 1);
  int slack = n_struct_;
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coef] : lp_.constraint_terms(i)) {
      tableau_(i, var) += coef;
    }
    switch (lp_.relation(i)) {
      case Relation::kLessEqual:
        tableau_(i, slack++) = 1.0;
        break;
      case Relation::kGreaterEqual:
        tableau_(i, slack++) = -1.0;
        break;
      case Relation::kEqual:
        break;
    }
    tableau_(i, first_artificial_ + i) = 1.0;
    tableau_(i, n_) = lp_.rhs(i);
  }
  basis_.resize(m_);
  basis_row_.assign(n_, -1);
  for (int i = 0; i < m_; ++i) {
    basis_[i] = first_artificial_ + i;
    basis_row_[first_artificial_ + i] = i;
  }
}

void SimplexSolver::SetupInitialBasis() {
  live_cols_ = n_;
  xb_.assign(m_, 0.0);
  nb_state_.assign(n_, 'L');

  // Nonbasic structural/slack variables start at a finite bound (preferring
  // the one of smaller magnitude) or 0 if free.
  for (int j = 0; j < first_artificial_; ++j) {
    if (IsFinite(lower_[j]) && IsFinite(upper_[j])) {
      nb_state_[j] =
          std::fabs(lower_[j]) <= std::fabs(upper_[j]) ? 'L' : 'U';
    } else if (IsFinite(lower_[j])) {
      nb_state_[j] = 'L';
    } else if (IsFinite(upper_[j])) {
      nb_state_[j] = 'U';
    } else {
      nb_state_[j] = 'F';
    }
  }

  // Residual r = b - A x_N decides each row's sign so its artificial starts
  // non-negative with coefficient +1.
  for (int i = 0; i < m_; ++i) {
    double r = lp_.rhs(i);
    for (int j = 0; j < first_artificial_; ++j) {
      const double a = tableau_(i, j);
      if (a == 0.0) continue;
      double v = 0.0;
      if (nb_state_[j] == 'L') v = lower_[j];
      if (nb_state_[j] == 'U') v = upper_[j];
      r -= a * v;
    }
    const int art = first_artificial_ + i;
    if (r < 0.0) {
      double* row = tableau_.Row(i);
      for (int j = 0; j <= n_; ++j) row[j] = -row[j];
      row[art] = 1.0;
    }
    xb_[i] = std::fabs(r);
    lower_[art] = 0.0;
    upper_[art] = kLpInfinity;
  }
}

void SimplexSolver::PinArtificials() {
  for (int i = 0; i < m_; ++i) {
    const int art = first_artificial_ + i;
    lower_[art] = 0.0;
    upper_[art] = 0.0;
    if (basis_row_[art] < 0) nb_state_[art] = 'L';
  }
  // A pinned artificial never enters again, so pivots stop updating the
  // artificial columns (a basic one stays a unit column regardless).
  live_cols_ = first_artificial_;
}

// Pivots each artificial still basic after phase 1 (at level zero) out for
// the largest live entry of its row. A row without one is redundant and
// keeps its artificial for good, so a pinned artificial never has to
// re-enter a basis.
void SimplexSolver::DriveOutArtificials() {
  for (int i = 0; i < m_; ++i) {
    const int art = basis_[i];
    if (art < first_artificial_) continue;
    const double* row = tableau_.Row(i);
    int q = -1;
    double best = kRebasisPivotEps;
    for (int j = 0; j < first_artificial_; ++j) {
      if (basis_row_[j] >= 0 || std::fabs(row[j]) <= best) continue;
      best = std::fabs(row[j]);
      q = j;
    }
    if (q < 0) continue;
    const double dq = xb_[i] / row[q];
    const double entering_value = VarValue(q) + dq;
    for (int k = 0; k < m_; ++k) {
      const double t = tableau_(k, q);
      if (t != 0.0) xb_[k] -= t * dq;
    }
    Pivot(i, q);
    nb_state_[art] = 'L';
    xb_[i] = entering_value;
    ++iterations_;
  }
}

double SimplexSolver::VarValue(int j) const {
  if (basis_row_[j] >= 0) return xb_[basis_row_[j]];
  switch (nb_state_[j]) {
    case 'L':
      return lower_[j];
    case 'U':
      return upper_[j];
    default:
      return 0.0;
  }
}

// Makes `col` basic in `row`: Gauss-Jordan on the live columns and on
// B^{-1} b. Values and nonbasic states are the caller's.
void SimplexSolver::Pivot(int row, int col) {
  const double pivot = tableau_(row, col);
  CheckOrDie(std::fabs(pivot) > kPivotEps * 0.5, "simplex: zero pivot");
  double* prow = tableau_.Row(row);
  const double inv = 1.0 / pivot;
  for (int j = 0; j < live_cols_; ++j) prow[j] *= inv;
  prow[n_] *= inv;
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* r = tableau_.Row(i);
    const double f = r[col];
    if (f == 0.0) continue;
    for (int j = 0; j < live_cols_; ++j) r[j] -= f * prow[j];
    r[n_] -= f * prow[n_];
    r[col] = 0.0;  // exact zero against drift
  }
  prow[col] = 1.0;

  basis_row_[basis_[row]] = -1;
  basis_[row] = col;
  basis_row_[col] = row;
}

SimplexSolver::StepResult SimplexSolver::Step(const std::vector<double>& cost,
                                              bool use_bland) {
  const double tol = options_.optimality_tolerance;

  // Precompute c_B once per iteration; reduced costs in one sweep, O(mn).
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = cost[basis_[i]];
  std::vector<double> z(live_cols_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double c = cb[i];
    if (c == 0.0) continue;
    const double* row = tableau_.Row(i);
    for (int j = 0; j < live_cols_; ++j) z[j] += c * row[j];
  }

  int entering = -1;
  int direction = +1;  // +1: increase entering var; -1: decrease
  double best_score = tol;
  for (int j = 0; j < live_cols_; ++j) {
    if (basis_row_[j] >= 0) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed variable
    const double rc = cost[j] - z[j];
    const char state = nb_state_[j];
    // Improving directions for a maximization problem.
    const bool can_increase = (state == 'L' || state == 'F') && rc > tol;
    const bool can_decrease = (state == 'U' || state == 'F') && rc < -tol;
    if (!can_increase && !can_decrease) continue;
    if (use_bland) {
      entering = j;
      direction = can_increase ? +1 : -1;
      break;
    }
    const double score = std::fabs(rc);
    if (score > best_score) {
      best_score = score;
      entering = j;
      direction = can_increase ? +1 : -1;
    }
  }
  if (entering < 0) return StepResult::kOptimal;

  // Ratio test: entering moves by `direction * t`, basic variable i moves
  // by -direction * T(i, entering) * t and must stay within its bounds.
  double t_max = kLpInfinity;
  // Bound flip limit from the entering variable's own range.
  if (IsFinite(lower_[entering]) && IsFinite(upper_[entering])) {
    t_max = upper_[entering] - lower_[entering];
  }
  int leave_row = -1;
  char leave_to = 'L';
  double best_pivot_mag = 0.0;
  for (int i = 0; i < m_; ++i) {
    const double coef = direction * tableau_(i, entering);
    if (std::fabs(coef) < kPivotEps) continue;
    const int bvar = basis_[i];
    double limit;
    char to;
    if (coef > 0.0) {
      if (!IsFinite(lower_[bvar])) continue;
      limit = (xb_[i] - lower_[bvar]) / coef;
      to = 'L';
    } else {
      if (!IsFinite(upper_[bvar])) continue;
      limit = (upper_[bvar] - xb_[i]) / (-coef);
      to = 'U';
    }
    limit = std::max(0.0, limit);
    if (limit > t_max + 1e-12) continue;
    const double mag = std::fabs(tableau_(i, entering));
    const bool strictly_smaller = limit < t_max - 1e-12;
    // Ties: Bland's rule picks the smallest basic variable index
    // (anti-cycling); otherwise prefer the largest pivot magnitude
    // (numerical stability).
    bool take = strictly_smaller || leave_row < 0;
    if (!take) {
      take = use_bland ? basis_[i] < basis_[leave_row]
                       : mag > best_pivot_mag;
    }
    if (take) {
      t_max = std::min(t_max, limit);
      leave_row = i;
      leave_to = to;
      best_pivot_mag = mag;
    }
  }

  if (!IsFinite(t_max) && leave_row < 0) return StepResult::kUnbounded;

  const double t = std::max(0.0, t_max);
  // Update basic values.
  for (int i = 0; i < m_; ++i) {
    const double coef = direction * tableau_(i, entering);
    if (coef != 0.0) xb_[i] -= coef * t;
  }

  if (leave_row < 0) {
    // Pure bound flip: the entering variable jumps to its other bound.
    nb_state_[entering] = direction > 0 ? 'U' : 'L';
    return StepResult::kPivoted;
  }

  // Pivot: entering becomes basic in leave_row.
  const double entering_value = VarValue(entering) + direction * t;
  const int leaving = basis_[leave_row];
  Pivot(leave_row, entering);
  nb_state_[leaving] = leave_to;
  xb_[leave_row] = entering_value;
  return StepResult::kPivoted;
}

long SimplexSolver::IterationCap() const {
  return options_.max_iterations > 0 ? options_.max_iterations
                                     : 200L * (m_ + n_) + 5000L;
}

StatusOr<SolveStatus> SimplexSolver::RunPhase(const std::vector<double>& cost,
                                              bool is_phase_one) {
  const long cap = IterationCap();
  const long bland_after = cap / 2;
  for (long it = 0; it < cap; ++it) {
    const StepResult r = Step(cost, /*use_bland=*/it > bland_after);
    if (r == StepResult::kOptimal) return SolveStatus::kOptimal;
    if (r == StepResult::kUnbounded) {
      if (is_phase_one) {
        return Status::Internal("simplex: phase-1 objective unbounded");
      }
      return SolveStatus::kUnbounded;
    }
    ++iterations_;
  }
  return Status::Internal("simplex: iteration limit reached");
}

// Two-phase primal simplex from an artificial basis under the current
// structural bounds. Leaves the tableau live whenever both phases ran.
StatusOr<SolveStatus> SimplexSolver::ColdPhases() {
  live_ = false;
  LoadStandardForm();
  SetupInitialBasis();

  // Phase 1: maximize -(sum of artificials).
  std::vector<double> phase1_cost(n_, 0.0);
  for (int i = 0; i < m_; ++i) phase1_cost[first_artificial_ + i] = -1.0;
  {
    PAWS_ASSIGN_OR_RETURN(const SolveStatus st, RunPhase(phase1_cost, true));
    (void)st;  // phase 1 is bounded, so the status is always kOptimal
  }
  double artificial_sum = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= first_artificial_) artificial_sum += xb_[i];
  }
  PinArtificials();
  live_ = true;
  if (artificial_sum > options_.feasibility_tolerance * (1.0 + m_)) {
    return SolveStatus::kInfeasible;
  }
  DriveOutArtificials();
  // Phase 2: the true objective.
  return RunPhase(cost_, false);
}

StatusOr<LpSolution> SimplexSolver::Solve() {
  iterations_ = 0;
  for (int j = 0; j < n_struct_; ++j) {
    lower_[j] = lp_.lower(j);
    upper_[j] = lp_.upper(j);
  }
  PAWS_ASSIGN_OR_RETURN(const SolveStatus st, ColdPhases());
  return Finish(st);
}

StatusOr<LpSolution> SimplexSolver::ColdRestart() {
  ++cold_restarts_;
  PAWS_ASSIGN_OR_RETURN(const SolveStatus st, ColdPhases());
  return Finish(st);
}

LpSolution SimplexSolver::Finish(SolveStatus status) const {
  LpSolution solution;
  solution.status = status;
  solution.simplex_iterations = iterations_;
  if (status != SolveStatus::kOptimal) return solution;
  solution.values.resize(n_struct_);
  for (int j = 0; j < n_struct_; ++j) {
    double v = VarValue(j);
    // Clamp tiny numerical drift back into the box.
    if (IsFinite(lower_[j])) v = std::max(v, lower_[j]);
    if (IsFinite(upper_[j])) v = std::min(v, upper_[j]);
    solution.values[j] = v;
  }
  solution.objective = lp_.ObjectiveValue(solution.values);
  return solution;
}

SimplexBasis SimplexSolver::basis() const {
  SimplexBasis out;
  out.basic = basis_;
  out.state = nb_state_;
  for (int v : basis_) out.state[v] = 'B';
  return out;
}

// Pivots each column of `start` that is not basic into a row whose basic
// column `start` does not hold, taking the largest such entry. Returns
// false when some column has no entry above kRebasisPivotEps.
bool SimplexSolver::InstallBasis(const SimplexBasis& start) {
  std::vector<char> wanted(n_, 0);
  for (int v : start.basic) wanted[v] = 1;
  std::vector<int> pending;
  for (int v : start.basic) {
    if (basis_row_[v] >= 0) continue;
    if (v >= live_cols_) return false;  // a stale artificial column
    pending.push_back(v);
  }
  // A pivot changes every entry, so a column without a safe pivot now may
  // have one after the others went in.
  while (!pending.empty()) {
    std::vector<int> deferred;
    for (int v : pending) {
      int row = -1;
      double best = kRebasisPivotEps;
      for (int i = 0; i < m_; ++i) {
        if (wanted[basis_[i]]) continue;
        const double mag = std::fabs(tableau_(i, v));
        if (mag > best) {
          best = mag;
          row = i;
        }
      }
      if (row < 0) {
        deferred.push_back(v);
        continue;
      }
      Pivot(row, v);
      ++iterations_;
    }
    if (deferred.size() == pending.size()) return false;
    pending.swap(deferred);
  }
  return true;
}

// Rebuilds B^{-1} [A | b] for the basis of `start` from A by Gauss-Jordan
// with partial pivoting. Returns false if that basis is singular.
bool SimplexSolver::Refactor(const SimplexBasis& start) {
  LoadStandardForm();
  std::vector<char> wanted(n_, 0);
  for (int v : start.basic) wanted[v] = 1;
  for (int v : start.basic) {
    if (basis_row_[v] >= 0) continue;  // an artificial already in place
    int row = -1;
    double best = kPivotEps;
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] < first_artificial_ || wanted[basis_[i]]) continue;
      const double mag = std::fabs(tableau_(i, v));
      if (mag > best) {
        best = mag;
        row = i;
      }
    }
    if (row < 0) return false;
    Pivot(row, v);
    ++iterations_;
  }
  return true;
}

// Takes the nonbasic states of `start`, moved to a finite bound where the
// current bounds require it.
void SimplexSolver::AdoptStates(const SimplexBasis& start) {
  for (int j = 0; j < n_; ++j) {
    if (basis_row_[j] >= 0) continue;
    const bool lo = IsFinite(lower_[j]);
    const bool hi = IsFinite(upper_[j]);
    char s = start.state[j];
    if (s == 'L' && !lo) s = hi ? 'U' : 'F';
    if (s == 'U' && !hi) s = lo ? 'L' : 'F';
    if (s != 'L' && s != 'U' && (lo || hi)) s = lo ? 'L' : 'U';
    if (s != 'L' && s != 'U') s = 'F';
    nb_state_[j] = s;
  }
}

// x_B = B^{-1} b - B^{-1} N x_N, from the tableau's right-hand column.
void SimplexSolver::RecomputeBasicValues() {
  std::vector<std::pair<int, double>> xn;  // nonbasic columns off zero
  for (int j = 0; j < live_cols_; ++j) {
    if (basis_row_[j] >= 0) continue;
    const double v = VarValue(j);
    if (v != 0.0) xn.emplace_back(j, v);
  }
  xb_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    const double* row = tableau_.Row(i);
    double v = row[n_];
    for (const auto& [j, x] : xn) v -= row[j] * x;
    xb_[i] = v;
  }
}

// Bounded dual simplex: keeps the reduced costs dual feasible while driving
// the most infeasible basic variable to its violated bound each pivot.
// kOptimal here means primal feasible; kInfeasible means some row can reach
// feasibility through no nonbasic move.
StatusOr<SolveStatus> SimplexSolver::DualPhase() {
  const double feas_tol = options_.feasibility_tolerance;
  const double opt_tol = options_.optimality_tolerance;
  const long cap = IterationCap();
  const long bland_after = 2L * (m_ + n_);
  for (long it = 0; it < cap; ++it) {
    const bool use_bland = it > bland_after;
    // Leaving row: the largest bound violation (Bland: smallest column).
    int r = -1;
    double worst = feas_tol;
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[i];
      const double infeas =
          std::max(lower_[b] - xb_[i], xb_[i] - upper_[b]);
      if (infeas <= feas_tol) continue;
      if (use_bland ? (r < 0 || b < basis_[r]) : infeas > worst) {
        worst = infeas;
        r = i;
      }
    }
    if (r < 0) return SolveStatus::kOptimal;
    const int leaving = basis_[r];
    const bool below = xb_[r] < lower_[leaving];
    const double sigma = below ? 1.0 : -1.0;
    const double target = below ? lower_[leaving] : upper_[leaving];

    // Entering column: x_r moves by -T(r, j) dx_j, so j qualifies when its
    // allowed move pushes x_r toward the target. Harris two-pass ratio test
    // on the dual slacks: bound the step with the tolerance, then take the
    // largest pivot within the bound.
    const double* prow = tableau_.Row(r);
    auto dual_slack = [&](int j, double a) {
      // a = sigma * T(r, j); returns the dual slack of j, or -1 when j
      // cannot enter.
      if (basis_row_[j] >= 0 || lower_[j] == upper_[j]) return -1.0;
      if (std::fabs(a) < kPivotEps) return -1.0;
      const char s = nb_state_[j];
      if (s == 'F') return 0.0;
      if (s == 'L' && a < 0.0) return std::max(0.0, -dj_[j]);
      if (s == 'U' && a > 0.0) return std::max(0.0, dj_[j]);
      return -1.0;
    };
    double bound = kLpInfinity;
    for (int j = 0; j < live_cols_; ++j) {
      const double a = sigma * prow[j];
      const double slack = dual_slack(j, a);
      if (slack < 0.0) continue;
      bound = std::min(bound, (slack + opt_tol) / std::fabs(a));
    }
    int q = -1;
    double best_mag = 0.0;
    for (int j = 0; j < live_cols_; ++j) {
      const double a = sigma * prow[j];
      const double slack = dual_slack(j, a);
      if (slack < 0.0 || slack / std::fabs(a) > bound) continue;
      if (use_bland ? q < 0 : std::fabs(a) > best_mag) {
        best_mag = std::fabs(a);
        q = j;
      }
    }
    if (q < 0) return SolveStatus::kInfeasible;

    // Duals: d_j -= theta * T(r, j), and the leaving column takes -theta.
    const double theta = dj_[q] / prow[q];
    for (int j = 0; j < live_cols_; ++j) {
      if (basis_row_[j] < 0 && prow[j] != 0.0) dj_[j] -= theta * prow[j];
    }
    dj_[q] = 0.0;
    dj_[leaving] = -theta;

    // Primal: x_q moves so that x_r lands on its target bound.
    const double dq = (xb_[r] - target) / prow[q];
    const double entering_value = VarValue(q) + dq;
    for (int i = 0; i < m_; ++i) {
      const double t = tableau_(i, q);
      if (t != 0.0) xb_[i] -= t * dq;
    }
    Pivot(r, q);
    nb_state_[leaving] = below ? 'L' : 'U';
    xb_[r] = entering_value;
    ++iterations_;
  }
  return Status::Internal("simplex: dual iteration limit reached");
}

// Dual simplex then primal clean-up from the installed basis and states.
StatusOr<SolveStatus> SimplexSolver::WarmPhases() {
  const double tol = options_.optimality_tolerance;
  dj_.assign(cost_.begin(), cost_.end());
  for (int i = 0; i < m_; ++i) {
    const double c = cost_[basis_[i]];
    if (c == 0.0) continue;
    const double* row = tableau_.Row(i);
    for (int j = 0; j < live_cols_; ++j) dj_[j] -= c * row[j];
  }
  // A boxed column on the wrong side for its reduced cost moves to its
  // other bound; the dual simplex then repairs the primal side.
  for (int j = 0; j < live_cols_; ++j) {
    if (basis_row_[j] >= 0 || lower_[j] == upper_[j]) continue;
    if (!IsFinite(lower_[j]) || !IsFinite(upper_[j])) continue;
    if (nb_state_[j] == 'L' && dj_[j] > tol) nb_state_[j] = 'U';
    if (nb_state_[j] == 'U' && dj_[j] < -tol) nb_state_[j] = 'L';
  }
  RecomputeBasicValues();
  PAWS_ASSIGN_OR_RETURN(const SolveStatus dual, DualPhase());
  if (dual != SolveStatus::kOptimal) return dual;
  RecomputeBasicValues();
  // The dual phase kept the reduced costs; a primal pass is needed only
  // where the Harris ratio test or a wrong-side free column left one
  // improving.
  for (int j = 0; j < live_cols_; ++j) {
    if (basis_row_[j] >= 0 || lower_[j] == upper_[j]) continue;
    const char s = nb_state_[j];
    if ((s != 'U' && dj_[j] > tol) || (s != 'L' && dj_[j] < -tol)) {
      return RunPhase(cost_, false);
    }
  }
  return SolveStatus::kOptimal;
}

// Largest row violation of the current point, in the model's own rows.
double SimplexSolver::RowResidual() const {
  std::vector<double> x(n_struct_);
  for (int j = 0; j < n_struct_; ++j) {
    x[j] = std::clamp(VarValue(j), lower_[j], upper_[j]);
  }
  double worst = 0.0;
  for (int i = 0; i < m_; ++i) {
    double lhs = 0.0;
    for (const auto& [var, coef] : lp_.constraint_terms(i)) {
      lhs += coef * x[var];
    }
    const double d = lhs - lp_.rhs(i);
    switch (lp_.relation(i)) {
      case Relation::kLessEqual:
        worst = std::max(worst, d);
        break;
      case Relation::kGreaterEqual:
        worst = std::max(worst, -d);
        break;
      case Relation::kEqual:
        worst = std::max(worst, std::fabs(d));
        break;
    }
  }
  return worst;
}

StatusOr<LpSolution> SimplexSolver::Resolve(const SimplexBasis& start,
                                            const std::vector<double>& lower,
                                            const std::vector<double>& upper) {
  if (static_cast<int>(lower.size()) != n_struct_ ||
      static_cast<int>(upper.size()) != n_struct_) {
    return Status::InvalidArgument("Resolve: bounds size mismatch");
  }
  if (static_cast<int>(start.basic.size()) != m_ ||
      static_cast<int>(start.state.size()) != n_) {
    return Status::InvalidArgument("Resolve: basis size mismatch");
  }
  std::vector<char> seen(n_, 0);
  for (int v : start.basic) {
    if (v < 0 || v >= n_ || seen[v]) {
      return Status::InvalidArgument("Resolve: malformed basis");
    }
    seen[v] = 1;
  }
  for (int j = 0; j < n_struct_; ++j) {
    if (!(lower[j] <= upper[j])) {
      return Status::InvalidArgument("Resolve: crossing bounds");
    }
  }
  iterations_ = 0;
  std::copy(lower.begin(), lower.end(), lower_.begin());
  std::copy(upper.begin(), upper.end(), upper_.begin());
  if (!live_) return ColdRestart();
  if (!InstallBasis(start) && !Refactor(start)) return ColdRestart();
  AdoptStates(start);

  StatusOr<SolveStatus> st = WarmPhases();
  // Pivots accumulate rounding in the live tableau; if the answer drifted
  // off its rows, refactor at the final basis and finish from there.
  if (st.ok() && *st == SolveStatus::kOptimal &&
      RowResidual() > options_.feasibility_tolerance) {
    if (!Refactor(basis())) return ColdRestart();
    st = WarmPhases();
  }
  if (!st.ok()) return ColdRestart();
  return Finish(*st);
}

StatusOr<LpSolution> SolveLp(const LinearProgram& lp,
                             const SimplexOptions& options) {
  if (lp.num_variables() == 0) {
    return Status::InvalidArgument("SolveLp: no variables");
  }
  SimplexSolver solver(lp, options);
  return solver.Solve();
}

}  // namespace paws
