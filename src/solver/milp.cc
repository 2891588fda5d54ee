#include "solver/milp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

namespace paws {

namespace {

struct Node {
  // Bound overrides relative to the root problem, as (var, lower, upper).
  std::vector<std::array<double, 2>> bounds;  // indexed by position in vars
  std::vector<int> vars;
  double lp_bound = 0.0;
  // Optimal basis of the parent's LP (the root's for the root), shared by
  // both children. The node's LP differs from it by one bound, so the
  // basis stays dual feasible and warm-starts the node's re-solve.
  std::shared_ptr<const SimplexBasis> start;

  bool operator<(const Node& other) const {
    return lp_bound < other.lp_bound;  // max-heap: best bound first
  }
};

// Index of the most fractional integer variable, or -1 if all integral.
int MostFractional(const LinearProgram& lp, const std::vector<double>& x,
                   double tol) {
  int best = -1;
  double best_frac = tol;
  for (int j = 0; j < lp.num_variables(); ++j) {
    if (!lp.is_integer(j)) continue;
    const double f = std::fabs(x[j] - std::round(x[j]));
    if (f > best_frac) {
      // Prefer the variable closest to 0.5 fractional part.
      const double dist_to_half = std::fabs(f - 0.5);
      const double best_dist = std::fabs(best_frac - 0.5);
      if (best < 0 || dist_to_half < best_dist) {
        best = j;
        best_frac = f;
      }
    }
  }
  return best;
}

}  // namespace

StatusOr<LpSolution> SolveMilp(const LinearProgram& lp,
                               const MilpOptions& options) {
  if (lp.num_integer_variables() == 0) return SolveLp(lp, options.simplex);

  // One live simplex for the whole call: the root is solved cold, every
  // later LP warm-starts from a basis an earlier one reached.
  SimplexSolver simplex(lp, options.simplex);
  std::vector<double> lower, upper;  // root bounds; a node's while it solves
  for (int j = 0; j < lp.num_variables(); ++j) {
    lower.push_back(lp.lower(j));
    upper.push_back(lp.upper(j));
  }
  auto solve_node = [&](const Node& node, const SimplexBasis& start) {
    for (size_t i = 0; i < node.vars.size(); ++i) {
      lower[node.vars[i]] = node.bounds[i][0];
      upper[node.vars[i]] = node.bounds[i][1];
    }
    auto solved = simplex.Resolve(start, lower, upper);
    for (int v : node.vars) {
      lower[v] = lp.lower(v);
      upper[v] = lp.upper(v);
    }
    return solved;
  };

  PAWS_ASSIGN_OR_RETURN(LpSolution root, simplex.Solve());
  if (root.status != SolveStatus::kOptimal) return root;
  const auto root_basis = std::make_shared<const SimplexBasis>(simplex.basis());

  LpSolution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  incumbent.objective = -kLpInfinity;
  long total_iterations = root.simplex_iterations;
  int nodes = 1;

  const double int_tol = options.integrality_tolerance;

  auto accept_if_integral = [&](const LpSolution& sol) {
    if (MostFractional(lp, sol.values, int_tol) != -1) return false;
    if (sol.objective > incumbent.objective) {
      incumbent = sol;
      incumbent.status = SolveStatus::kOptimal;
    }
    return true;
  };

  // Diving heuristic: repeatedly fix the most nearly-integral fractional
  // variable to its rounded value and re-solve. Unlike naive rounding this
  // respects coupled integer structures (e.g. SOS2 segment selectors whose
  // sum must be exactly 1), so it reliably seeds an incumbent. Each step
  // starts from the previous step's basis.
  if (options.use_rounding_heuristic && !accept_if_integral(root)) {
    Node dive;
    SimplexBasis dive_basis = *root_basis;
    LpSolution current = root;
    for (int depth = 0; depth < 4 * lp.num_integer_variables() + 8; ++depth) {
      // Pick the fractional integer variable closest to an integer.
      int pick = -1;
      double best_frac = 1.0;
      for (int j = 0; j < lp.num_variables(); ++j) {
        if (!lp.is_integer(j)) continue;
        bool fixed = false;
        for (size_t i = 0; i < dive.vars.size(); ++i) {
          fixed = fixed || dive.vars[i] == j;
        }
        if (fixed) continue;
        const double f = std::fabs(current.values[j] -
                                   std::round(current.values[j]));
        if (f > int_tol && f < best_frac) {
          best_frac = f;
          pick = j;
        }
      }
      if (pick < 0) break;  // integral (or only fixed vars remain)
      const double r = std::clamp(std::round(current.values[pick]),
                                  lp.lower(pick), lp.upper(pick));
      dive.vars.push_back(pick);
      dive.bounds.push_back({r, r});
      auto dived = solve_node(dive, dive_basis);
      if (!dived.ok()) break;
      total_iterations += dived->simplex_iterations;
      if (dived->status != SolveStatus::kOptimal) {
        // Infeasible dive: flip the last fix to the other side once.
        const double flipped = r > current.values[pick]
                                   ? std::floor(current.values[pick])
                                   : std::ceil(current.values[pick]);
        dive.bounds.back() = {std::clamp(flipped, lp.lower(pick),
                                         lp.upper(pick)),
                              std::clamp(flipped, lp.lower(pick),
                                         lp.upper(pick))};
        auto retried = solve_node(dive, dive_basis);
        if (!retried.ok()) break;
        total_iterations += retried->simplex_iterations;
        if (retried->status != SolveStatus::kOptimal) break;
        current = std::move(retried).value();
      } else {
        current = std::move(dived).value();
      }
      dive_basis = simplex.basis();
      if (accept_if_integral(current)) break;
    }
  }

  // Plain rounding as a second chance if the dive found nothing.
  if (options.use_rounding_heuristic &&
      incumbent.status != SolveStatus::kOptimal) {
    // Two attempts: round to nearest, then round down (floors keep
    // packing-style <= constraints feasible when nearest overshoots).
    for (const bool round_down : {false, true}) {
      Node fixed;
      for (int j = 0; j < lp.num_variables(); ++j) {
        if (!lp.is_integer(j)) continue;
        const double raw = round_down ? std::floor(root.values[j] + int_tol)
                                      : std::round(root.values[j]);
        const double r = std::clamp(raw, lp.lower(j), lp.upper(j));
        fixed.vars.push_back(j);
        fixed.bounds.push_back({r, r});
      }
      auto rounded = solve_node(fixed, *root_basis);
      if (rounded.ok()) {
        total_iterations += rounded->simplex_iterations;
        if (rounded->status == SolveStatus::kOptimal &&
            accept_if_integral(*rounded)) {
          break;
        }
      }
    }
  }

  std::priority_queue<Node> open;
  {
    Node root_node;
    root_node.lp_bound = root.objective;
    root_node.start = root_basis;
    open.push(std::move(root_node));
  }
  // If the root relaxation is already integral we are done.
  if (incumbent.status == SolveStatus::kOptimal &&
      std::fabs(incumbent.objective - root.objective) <=
          options.absolute_gap_tolerance) {
    incumbent.simplex_iterations = total_iterations;
    incumbent.nodes_explored = nodes;
    incumbent.gap = 0.0;
    return incumbent;
  }

  double best_open_bound = root.objective;
  while (!open.empty() && nodes < options.max_nodes) {
    Node node = open.top();
    open.pop();
    best_open_bound = node.lp_bound;
    if (node.lp_bound <=
        incumbent.objective + options.absolute_gap_tolerance) {
      break;  // best-first: every remaining node is dominated
    }

    auto solved = solve_node(node, *node.start);
    PAWS_RETURN_IF_ERROR(solved.status());
    ++nodes;
    total_iterations += solved->simplex_iterations;
    if (solved->status != SolveStatus::kOptimal) continue;  // pruned
    if (solved->objective <=
        incumbent.objective + options.absolute_gap_tolerance) {
      continue;
    }
    const int frac = MostFractional(lp, solved->values, int_tol);
    if (frac < 0) {
      accept_if_integral(*solved);
      continue;
    }
    // Branch on the fractional variable.
    const double v = solved->values[frac];
    double node_lo = lp.lower(frac), node_hi = lp.upper(frac);
    for (size_t i = 0; i < node.vars.size(); ++i) {
      if (node.vars[i] == frac) {
        node_lo = node.bounds[i][0];
        node_hi = node.bounds[i][1];
      }
    }
    const auto basis = std::make_shared<const SimplexBasis>(simplex.basis());
    auto make_child = [&](double lo, double hi) {
      Node child = node;
      child.lp_bound = solved->objective;
      child.start = basis;
      bool replaced = false;
      for (size_t i = 0; i < child.vars.size(); ++i) {
        if (child.vars[i] == frac) {
          child.bounds[i] = {lo, hi};
          replaced = true;
        }
      }
      if (!replaced) {
        child.vars.push_back(frac);
        child.bounds.push_back({lo, hi});
      }
      if (lo <= hi) open.push(std::move(child));
    };
    make_child(node_lo, std::floor(v));
    make_child(std::ceil(v), node_hi);
  }

  if (incumbent.status != SolveStatus::kOptimal) {
    // No integral solution found.
    if (open.empty()) {
      LpSolution out;
      out.status = SolveStatus::kInfeasible;
      out.simplex_iterations = total_iterations;
      out.nodes_explored = nodes;
      return out;
    }
    return Status::ResourceExhausted(
        "SolveMilp: node limit reached without an incumbent");
  }

  incumbent.simplex_iterations = total_iterations;
  incumbent.nodes_explored = nodes;
  if (!open.empty() && nodes >= options.max_nodes) {
    incumbent.status = SolveStatus::kFeasibleLimit;
    incumbent.gap = std::max(0.0, best_open_bound - incumbent.objective);
  } else {
    incumbent.gap = 0.0;
  }
  return incumbent;
}

}  // namespace paws
