// Register saturation reduction (section 4): add serial arcs to a DDG so
// that RS_t(G-bar) <= R while minimizing critical-path growth.
//
// * reduce_optimal drives the exact SRC solver through the paper's
//   decrement loop (maximize achieved RN <= R, then minimize makespan) and
//   builds G-bar from the witness with the Theorem-4.2 construction
//   (core/extension.hpp).
// * reduce_greedy is the heuristic of [Touati CC'01]: repeatedly serialize
//   a pair of saturating values, choosing the candidate with minimal
//   critical-path increase (then maximal saturation drop), until RS <= R.
#pragma once

#include <optional>

#include "core/context.hpp"
#include "core/extension.hpp"
#include "core/greedy_k.hpp"
#include "core/src_solver.hpp"
#include "sched/schedule.hpp"

namespace rs::core {

enum class ReduceStatus {
  AlreadyFits,   // RS(G) <= R, nothing to do (the figure-2(a) case)
  Reduced,       // extended DDG with RS <= R produced
  SpillNeeded,   // no reduction found: spilling unavoidable (within budget)
  LimitHit,      // solver budget exhausted before an answer
};

struct ReduceResult {
  ReduceStatus status = ReduceStatus::LimitHit;
  std::optional<ddg::Ddg> extended;   // present when Reduced
  int achieved_rs = 0;                // RS(G-bar) (witnessed)
  sched::Time critical_path = 0;      // CP(G-bar)
  sched::Time original_cp = 0;        // CP(G)
  int arcs_added = 0;
  long nodes = 0;                     // search effort
  support::SolveStats stats;          // aggregated over every sub-solve

  sched::Time ilp_loss() const { return critical_path - original_cp; }
};

struct ReduceOptions {
  SrcOptions src;
  GreedyOptions greedy;
  /// Upper bound on RS(G) if already known (skips recomputation); -1 = no.
  int rs_upper = -1;
  /// Safety cap on heuristic serialization rounds.
  int max_rounds = 256;
};

/// Exact reduction via the decrement-loop SRC search (section 4's optimal
/// method, with the intLP solver swapped for the combinatorial engine; the
/// section-4 intLP itself lives in reduce_ilp.hpp and cross-checks this).
/// One context budgets the RS pre-pass and the whole decrement loop.
ReduceResult reduce_optimal(const TypeContext& ctx, int R,
                            const ReduceOptions& opts = {},
                            const support::SolveContext& solve = {});

/// Heuristic reduction by iterative value serialization [CC'01]. Observes
/// the context between serialization rounds, so it is cancellable too.
ReduceResult reduce_greedy(const TypeContext& ctx, int R,
                           const ReduceOptions& opts = {},
                           const support::SolveContext& solve = {});

}  // namespace rs::core
