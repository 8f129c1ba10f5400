// The paper's section-4 intLP for optimal RS reduction.
//
// On top of the shared skeleton (sigma, kill dates, interference s):
//   * register-assignment binaries x^i_u, one per (value, register),
//     sum_i x^i_u = 1 — a coloring of the interference graph with R colors;
//   * interference forbids color sharing: x^i_u + x^i_v + s_uv <= 2;
//   * the paper's "exactly R colors" convention: every color class is
//     non-empty (free to satisfy whenever |values| >= R, binding otherwise,
//     which is what drives the decrement loop);
//   * objective: minimize sigma(⊥);
//   * whenever a witness's Theorem-4.2 extension is cyclic, a re-solve adds
//     topological-order variables pi_u and orientation binaries p_uv that
//     forbid such (non-positive) circuits — the paper's O(n^3) constraint
//     block at the end of section 4.
// The decrement loop retries with R-1, ..., 1 on infeasibility and reports
// spilling as unavoidable when R = 1 fails (section 4).
#pragma once

#include "core/context.hpp"
#include "core/reduce.hpp"
#include "lp/branch_bound.hpp"

namespace rs::core {

struct ReduceIlpOptions {
  sched::Time horizon = 0;  // <= 0: paper default (sum of arc latencies)
  bool eliminate_redundant_arcs = true;
  bool eliminate_never_alive_pairs = true;
  /// Require each of the R color classes to be used (paper's "exactly Rt").
  bool require_all_colors_used = true;
  /// Add the O(n^3) topological-sort-existence block up front.
  bool forbid_circuits = false;
  lp::MipOptions mip;
};

struct ReduceIlpResult {
  ReduceStatus status = ReduceStatus::LimitHit;
  int colors_used = 0;           // R actually colored with (decrement loop)
  sched::Schedule sigma;         // witness schedule
  std::optional<ddg::Ddg> extended;
  int achieved_rn = 0;           // RN_sigma(G) == RS(G-bar) by Theorem 4.2
  sched::Time makespan = 0;      // sigma(⊥)
  sched::Time critical_path = 0; // CP(G-bar)
  int arcs_added = 0;
  long nodes = 0;
  support::SolveStats stats;  // aggregated branch-and-bound effort

  /// Model size of the last solved intLP (for the complexity table).
  int variables = 0;
  int constraints = 0;
};

/// Builds and solves the section-4 intLP for a fixed register count R
/// (single shot, no decrement loop).
ReduceIlpResult reduce_ilp_fixed(const TypeContext& ctx, int R,
                                 const ReduceIlpOptions& opts = {},
                                 const support::SolveContext& solve = {});

/// Full decrement loop: R, R-1, ..., 1; stops at the first feasible count.
/// One context budgets the whole loop.
ReduceIlpResult reduce_ilp(const TypeContext& ctx, int R,
                           const ReduceIlpOptions& opts = {},
                           const support::SolveContext& solve = {});

}  // namespace rs::core
