// Register-*minimization* baseline (section 6 discussion, figure 2(b)):
// the literature's approach the paper argues against. Finds the smallest
// register need achievable under a critical-path budget, then freezes that
// minimal-need schedule into the DAG via the Theorem-4.2 arc construction —
// restricting the downstream scheduler regardless of how many registers the
// machine actually has.
#pragma once

#include <optional>

#include "core/context.hpp"
#include "core/src_solver.hpp"

namespace rs::core {

struct MinRegResult {
  bool proven = false;        // search not truncated
  int min_need = 0;           // minimal RN under the budget
  sched::Schedule sigma;      // witness
  std::optional<ddg::Ddg> extended;  // minimal-register-need DAG
  int arcs_added = 0;
  sched::Time critical_path = 0;     // CP of the extended DAG
  long nodes = 0;
  support::SolveStats stats;
};

/// Minimizes RN subject to makespan <= cp_budget (<= 0: the original
/// critical path, i.e. "minimize the register requirement under critical
/// path constraints" — the paper's footnote 4).
MinRegResult minimize_register_need(const TypeContext& ctx,
                                    sched::Time cp_budget,
                                    const SrcOptions& opts,
                                    const support::SolveContext& solve = {});

}  // namespace rs::core
