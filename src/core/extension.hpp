// The Theorem-4.2 construction (section 4). For a valid schedule sigma,
// serial arcs from the readers of each value to the definers of the values
// sigma writes after it dies make those precedences hold in every schedule
// of the extended DDG G-bar; then RS(G-bar) = RN_sigma(G) and CP(G-bar) <=
// the total time of sigma. The paper accepts sigma only if G-bar keeps a
// topological sort. Zero write offsets do not ensure it: two ops issued in
// one cycle that both read a value dying there get a zero-latency 2-cycle
// (rr0 <-> ri0 in perfbench/kernels/complex-mul2.ddg).
#pragma once

#include <vector>

#include "core/context.hpp"
#include "sched/schedule.hpp"

namespace rs::core {

struct SerialArc {
  ddg::NodeId src;
  ddg::NodeId dst;
  ddg::Latency latency;
};

/// Arcs forcing LT(value i) before LT(value j) in every schedule: each
/// reader of i reads before j is written (latency delta_r - delta_w).
/// Arcs a path of ctx's DDG already enforces are left out, so an empty
/// list means the pair is already ordered.
std::vector<SerialArc> pair_serialization_arcs(const TypeContext& ctx, int i,
                                               int j);

struct ExtensionResult {
  ddg::Ddg extended;       // G-bar
  int arcs_added = 0;      // serial arcs inserted (after dedup)
  bool is_dag = true;      // false => no topological sort (paper: reject)
};

/// Builds G-bar from sigma per the Theorem-4.2 proof. sigma must be valid.
ExtensionResult extend_by_schedule(const TypeContext& ctx,
                                   const sched::Schedule& sigma);

/// extend_by_schedule(ctx, sigma).is_dag, decided over ctx's graph plus
/// the same arcs without copying the DDG (the SRC leaf guard).
bool extension_is_acyclic(const TypeContext& ctx, const sched::Schedule& sigma);

}  // namespace rs::core
