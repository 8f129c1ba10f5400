// Exact solver for the SRC problem (Definition 4.3): does a schedule exist
// with register need <= R and total time <= P? — plus the two optimization
// modes the section-4 reduction needs:
//   * minimum makespan subject to RN <= R  (the intLP's "minimize sigma_bot");
//   * the paper's decrement loop, i.e. lexicographically maximize the
//     achieved register need (<= R), then minimize makespan.
//
// Search: depth-first assignment of issue times in a fixed topological
// order within [earliest-from-predecessors, P - LongestPathFrom] windows.
// Pruning uses a monotone lower bound on the register need of any
// completion: each already-defined value certainly lives until the larger
// of its already-scheduled reads and the earliest possible issue of its
// unscheduled consumers, and those forced intervals only grow as the
// schedule completes. An optional leaf guard rejects schedules whose
// Theorem-4.2 arc set would create a circuit (the paper's
// topological-sort-existence requirement, end of section 4).
#pragma once

#include "core/context.hpp"
#include "sched/schedule.hpp"
#include "support/solve_context.hpp"

namespace rs::core {

struct SrcOptions {
  long node_limit = 5000000;  // <= 0: unlimited
  /// Extra cycles beyond the critical path explored before giving up on
  /// feasibility (bounds the makespan search).
  sched::Time slack_limit = 64;
  /// Reject leaves whose Theorem-4.2 extension would not admit a
  /// topological sort (extension_is_acyclic).
  bool acyclic_extension = false;
};

enum class SrcStatus {
  Proven,     // answer is exact
  LimitHit,   // budget exhausted; result is a bound / best-so-far
};

struct SrcResult {
  bool feasible = false;
  sched::Schedule sigma;       // witness when feasible
  sched::Time makespan = 0;    // sigma(⊥) of the witness
  int rn = 0;                  // register need of the witness
  SrcStatus status = SrcStatus::Proven;
  long nodes = 0;
  support::SolveStats stats;   // per-call search effort + stop cause
};

class SrcSolver {
 public:
  /// R: available registers of ctx's type.
  SrcSolver(const TypeContext& ctx, int R);

  /// Is there sigma with RN <= R, sigma(⊥) <= P, and (if rn_target > 0)
  /// RN >= rn_target? Observes the context's deadline and cancel token
  /// (coarsely, every SolveContext::kPollInterval DFS nodes).
  SrcResult feasible(sched::Time P, int rn_target, const SrcOptions& opts,
                     const support::SolveContext& solve = {});

  /// Minimum sigma(⊥) subject to RN <= R; searches P upward from the
  /// critical path to CP + slack_limit. One context budgets the whole sweep.
  SrcResult minimize_makespan(const SrcOptions& opts,
                              const support::SolveContext& solve = {});

  /// Paper's decrement loop: largest achievable RN <= R (starting from
  /// rs_upper), then minimum makespan at that RN.
  SrcResult reduce_lexicographic(int rs_upper, const SrcOptions& opts,
                                 const support::SolveContext& solve = {});

 private:
  const TypeContext& ctx_;
  int R_;
};

}  // namespace rs::core
