// Bounded-variable revised primal simplex.
//
// Solves the LP relaxation of a Model (integrality ignored). Two phases:
// phase 1 drives artificial infeasibility columns to zero, phase 2 optimizes
// the real objective. Dense explicit basis inverse with periodic
// refactorization; Dantzig pricing with a Bland fallback after a run of
// degenerate pivots (anti-cycling).
//
// Problem sizes in this library (the paper's intLP models for loop-body
// DAGs) are a few hundred to a few thousand columns, where a dense inverse
// is simple and fast enough; sparsity is still exploited in pricing via
// column-compressed storage.
#pragma once

#include <functional>
#include <vector>

#include "lp/model.hpp"

namespace rs::lp {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit };

struct LpResult {
  LpStatus status = LpStatus::IterLimit;
  /// Objective in the *model's* sense (max stays max).
  double objective = 0.0;
  /// Structural variable values (model var order); empty unless Optimal.
  std::vector<double> x;
  /// Phase-2 pivots (the optimizing pass; what callers budget against).
  int iterations = 0;
  /// Phase-1 pivots spent driving artificial infeasibility to zero; 0 when
  /// the initial basis was already feasible.
  int phase1_iterations = 0;
};

/// Reusable solver: the constraint matrix is extracted from the model once;
/// each solve takes per-variable bound overrides, which is how
/// branch-and-bound tightens nodes without rebuilding the model.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model);

  /// Solves with the model's own bounds. `stop` (when set) is polled every
  /// few dozen pivots; firing aborts the solve with LpStatus::IterLimit —
  /// the hook that lets a cancelled request or an expired deadline
  /// interrupt a long relaxation mid-solve instead of at the next
  /// branch-and-bound node.
  LpResult solve(int max_iterations = 50000,
                 const std::function<bool()>& stop = {}) const;

  /// Solves with overridden structural bounds (size == var_count()).
  LpResult solve_with_bounds(const std::vector<double>& lo,
                             const std::vector<double>& hi,
                             int max_iterations = 50000,
                             const std::function<bool()>& stop = {}) const;

 private:
  struct ColEntry {
    int row;
    double coef;
  };
  friend struct SimplexRun;

  int n_ = 0;  // structural columns
  int m_ = 0;  // rows
  bool maximize_ = false;
  std::vector<std::vector<ColEntry>> cols_;  // structural sparse columns
  std::vector<double> cost_;                 // minimization costs, structural
  double cost_const_ = 0.0;
  std::vector<double> rhs_;
  std::vector<double> slack_lo_, slack_hi_;  // slack bounds encoding sense
  std::vector<double> lo_default_, hi_default_;
};

}  // namespace rs::lp
