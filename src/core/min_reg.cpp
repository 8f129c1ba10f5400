#include "core/min_reg.hpp"

#include "core/extension.hpp"
#include "graph/paths.hpp"
#include "support/assert.hpp"

namespace rs::core {

MinRegResult minimize_register_need(const TypeContext& ctx,
                                    sched::Time cp_budget,
                                    const SrcOptions& opts,
                                    const support::SolveContext& solve) {
  MinRegResult result;
  const sched::Time budget =
      cp_budget > 0 ? cp_budget : graph::critical_path(ctx.ddg().graph());
  if (ctx.value_count() == 0) {
    result.proven = true;
    result.sigma = sched::asap(ctx.ddg());
    result.extended = ctx.ddg();
    result.critical_path = budget;
    return result;
  }
  // Paper (end of section 4): only schedules whose Theorem-4.2 extension
  // keeps the DAG property are admissible witnesses — otherwise the
  // "minimal-need DAG" this function promises would be cyclic.
  SrcOptions guarded = opts;
  guarded.acyclic_extension = true;
  for (int r = 1; r <= ctx.value_count(); ++r) {
    SrcSolver solver(ctx, r);
    SrcResult feas = solver.feasible(budget, 0, guarded, solve);
    result.nodes += feas.nodes;
    result.stats.merge(feas.stats);
    if (feas.status == SrcStatus::LimitHit && !feas.feasible) {
      result.proven = false;
      result.min_need = r;  // lower bound only
      return result;
    }
    if (feas.feasible) {
      result.proven = true;
      result.min_need = feas.rn;
      result.sigma = feas.sigma;
      ExtensionResult ext = extend_by_schedule(ctx, feas.sigma);
      result.arcs_added = ext.arcs_added;
      result.critical_path = graph::critical_path(ext.extended.graph());
      result.extended = std::move(ext.extended);
      return result;
    }
  }
  // Every register count was infeasible within the budget: the makespan
  // budget is below the critical path, or (with visible write offsets) no
  // schedule admits a DAG-preserving Theorem-4.2 extension. Report an
  // unproven |values| bound with no extension — the reduce path treats the
  // analogous exhaustion as SpillNeeded rather than asserting, and a
  // user-supplied cp= must not be able to trip an internal invariant.
  result.proven = false;
  result.min_need = ctx.value_count();
  return result;
}

}  // namespace rs::core
