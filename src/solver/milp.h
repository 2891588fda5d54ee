#ifndef PAWS_SOLVER_MILP_H_
#define PAWS_SOLVER_MILP_H_

#include "solver/lp.h"
#include "solver/simplex.h"

namespace paws {

/// Options for the branch-and-bound MILP solver.
struct MilpOptions {
  /// Node budget. When exhausted with an incumbent, the solve returns
  /// kFeasibleLimit and reports the optimality gap.
  int max_nodes = 20000;
  /// Prune nodes whose LP bound improves the incumbent by less than this.
  double absolute_gap_tolerance = 1e-6;
  /// Integrality tolerance: |x - round(x)| below this counts as integral.
  double integrality_tolerance = 1e-6;
  /// Try a round-and-fix heuristic at the root to seed the incumbent.
  bool use_rounding_heuristic = true;
  SimplexOptions simplex;
};

/// Solves a maximization MILP by best-first branch and bound on the
/// variables flagged integral in `lp`, with the dense simplex as the
/// relaxation solver. The root relaxation is solved cold; every dive step
/// and node re-solves warm from its parent's basis (SimplexSolver::Resolve),
/// so a node stores only that O(m + n) basis. `simplex_iterations` counts
/// every pivot of the call. If `lp` has no integer variables this reduces to
/// a single LP solve.
StatusOr<LpSolution> SolveMilp(const LinearProgram& lp,
                               const MilpOptions& options = {});

}  // namespace paws

#endif  // PAWS_SOLVER_MILP_H_
