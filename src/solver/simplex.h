#ifndef PAWS_SOLVER_SIMPLEX_H_
#define PAWS_SOLVER_SIMPLEX_H_

#include <vector>

#include "solver/lp.h"
#include "util/matrix.h"

namespace paws {

/// Options for the LP solver.
struct SimplexOptions {
  /// Hard cap on simplex iterations per phase (0 = automatic, scaled by
  /// problem size). The solver switches from Dantzig to Bland's rule after
  /// sustained degeneracy, so the cap should never bind on sane inputs.
  long max_iterations = 0;
  double feasibility_tolerance = 1e-7;
  double optimality_tolerance = 1e-7;
};

/// A simplex basis over the standard-form columns of a SimplexSolver
/// (structurals, then one slack per inequality row, then one artificial per
/// row): the column basic in each row, and for every column its state
/// ('B' basic, 'L' / 'U' nonbasic at its lower / upper bound, 'F' free at 0).
/// O(m + n), independent of the tableau it came from.
struct SimplexBasis {
  std::vector<int> basic;
  std::vector<char> state;
};

/// Dense bounded-variable simplex over the standard form A x = b,
/// l <= x <= u of `lp` (integrality flags ignored). The tableau B^{-1} A is
/// kept together with its right-hand column B^{-1} b and stays live between
/// calls, so the same rows can be re-solved under other variable bounds:
///
///  - Solve() is the cold two-phase primal simplex from an artificial basis.
///  - Resolve() warm-starts from any basis an earlier call reached. It
///    re-installs that basis by pivoting the live tableau (refactoring from
///    A when no safe pivot exists), applies the bounds, recomputes the basic
///    values from B^{-1} b and runs a bounded dual simplex, then a primal
///    clean-up. When only bounds changed since `start` was optimal, `start`
///    stays dual feasible and the dual simplex needs few pivots. Numerical
///    failure falls back to a cold solve under the same bounds.
///
/// Every result's `simplex_iterations` counts the pivots and bound flips
/// that call made, re-basis and refactor pivots included. `lp` must outlive
/// the solver and keep its rows unchanged.
class SimplexSolver {
 public:
  SimplexSolver(const LinearProgram& lp, const SimplexOptions& options = {});

  /// Cold solve under the bounds of `lp`. Returns kOptimal / kInfeasible /
  /// kUnbounded; Status errors indicate internal failures (iteration cap).
  StatusOr<LpSolution> Solve();

  /// Solves the LP whose structural bounds are `lower` / `upper` (one entry
  /// per variable of `lp`), starting from `start`.
  StatusOr<LpSolution> Resolve(const SimplexBasis& start,
                               const std::vector<double>& lower,
                               const std::vector<double>& upper);

  /// The basis the last Solve() / Resolve() ended on.
  SimplexBasis basis() const;

  /// Number of Resolve() calls that fell back to a cold solve.
  long cold_restarts() const { return cold_restarts_; }

 private:
  enum class StepResult { kOptimal, kUnbounded, kPivoted };

  void LoadStandardForm();
  void SetupInitialBasis();
  void PinArtificials();
  void DriveOutArtificials();
  void Pivot(int row, int col);
  StepResult Step(const std::vector<double>& cost, bool use_bland);
  StatusOr<SolveStatus> RunPhase(const std::vector<double>& cost,
                                 bool is_phase_one);
  StatusOr<SolveStatus> ColdPhases();
  StatusOr<LpSolution> ColdRestart();
  bool InstallBasis(const SimplexBasis& start);
  bool Refactor(const SimplexBasis& start);
  void AdoptStates(const SimplexBasis& start);
  void RecomputeBasicValues();
  StatusOr<SolveStatus> DualPhase();
  StatusOr<SolveStatus> WarmPhases();
  double RowResidual() const;
  LpSolution Finish(SolveStatus status) const;
  long IterationCap() const;
  double VarValue(int j) const;

  const LinearProgram& lp_;
  SimplexOptions options_;

  int m_ = 0;            // rows
  int n_ = 0;            // total columns (struct + slack + artificial)
  int n_struct_ = 0;
  int first_artificial_ = 0;
  Matrix tableau_;       // m x (n + 1): B^{-1} A, then B^{-1} b in column n
  int live_cols_ = 0;    // leading columns pivots keep current
  std::vector<double> lower_, upper_;
  std::vector<double> cost_;     // phase-2 objective per column
  std::vector<int> basis_;       // var basic in each row
  std::vector<int> basis_row_;   // var -> row or -1
  std::vector<double> xb_;       // values of basic variables per row
  std::vector<double> dj_;       // reduced costs (dual phase)
  // Nonbasic state: 'L' at lower, 'U' at upper, 'F' free at 0.
  std::vector<char> nb_state_;
  long iterations_ = 0;
  long cold_restarts_ = 0;
  // The tableau matches basis_ and the artificials are pinned at 0, so a
  // Resolve() can start from it.
  bool live_ = false;
};

/// Solves the LP relaxation of `lp` (integrality flags ignored) cold with
/// SimplexSolver::Solve(). Returns kOptimal / kInfeasible / kUnbounded;
/// Status errors indicate internal failures (iteration cap) rather than
/// problem status.
StatusOr<LpSolution> SolveLp(const LinearProgram& lp,
                             const SimplexOptions& options = {});

}  // namespace paws

#endif  // PAWS_SOLVER_SIMPLEX_H_
