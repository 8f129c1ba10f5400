#include "core/reduce_ilp.hpp"

#include <cmath>
#include <string>

#include "core/ilp_common.hpp"
#include "graph/paths.hpp"
#include "sched/lifetime.hpp"
#include "lp/linearize.hpp"
#include "support/assert.hpp"

namespace rs::core {

namespace {

SkeletonOptions to_skeleton(const ReduceIlpOptions& opts) {
  SkeletonOptions s;
  s.horizon = opts.horizon;
  s.eliminate_redundant_arcs = opts.eliminate_redundant_arcs;
  s.eliminate_never_alive_pairs = opts.eliminate_never_alive_pairs;
  return s;
}

}  // namespace

ReduceIlpResult reduce_ilp_fixed(const TypeContext& ctx, int R,
                                 const ReduceIlpOptions& opts,
                                 const support::SolveContext& solve) {
  RS_REQUIRE(R >= 1, "need at least one register");
  RS_REQUIRE(ctx.ddg().bottom().has_value(),
             "section-4 objective needs a normalized DDG (sigma(⊥))");
  const int nv = ctx.value_count();

  IlpSkeleton skel = build_ilp_skeleton(ctx, to_skeleton(opts));
  lp::Model& m = skel.model;

  // Register-assignment binaries: value u stored in exactly one register.
  // x[i * R + c] for value index i, color c.
  std::vector<lp::Var> x(static_cast<std::size_t>(nv) * R);
  for (int i = 0; i < nv; ++i) {
    lp::LinExpr one_reg;
    for (int c = 0; c < R; ++c) {
      x[i * R + c] = m.add_binary("x." + std::to_string(i) + "." +
                                  std::to_string(c));
      one_reg.add(x[i * R + c], 1.0);
    }
    m.add_constraint(one_reg, lp::Sense::EQ, 1.0,
                     "onereg." + std::to_string(i));
  }
  // Interfering values cannot share a register.
  for (int i = 0; i < nv; ++i) {
    for (int j = i + 1; j < nv; ++j) {
      if (skel.pair_eliminated(i, j)) continue;  // never interfere
      const lp::Var s = skel.s[skel.pair_index(i, j)];
      for (int c = 0; c < R; ++c) {
        lp::LinExpr e = lp::LinExpr(x[i * R + c]) + lp::LinExpr(x[j * R + c]);
        e.add(s, 1.0);
        m.add_constraint(e, lp::Sense::LE, 2.0,
                         "share." + std::to_string(i) + "." +
                             std::to_string(j) + "." + std::to_string(c));
      }
    }
  }
  if (opts.require_all_colors_used) {
    for (int c = 0; c < R; ++c) {
      lp::LinExpr used;
      for (int i = 0; i < nv; ++i) used.add(x[i * R + c], 1.0);
      m.add_constraint(used, lp::Sense::GE, 1.0,
                       "used." + std::to_string(c));
    }
  }

  if (opts.forbid_circuits) {
    // Topological-sort existence for the extension (end of section 4):
    // orientation binaries p_ij <=> LT(i) precedes LT(j), order potentials
    // pi_u, and conditional ordering constraints along every arc the
    // Theorem-4.2 construction would add.
    const int n = ctx.ddg().graph().node_count();
    std::vector<lp::Var> pi(n);
    for (graph::NodeId u = 0; u < n; ++u) {
      pi[u] = m.add_int(0, n - 1, "pi." + std::to_string(u));
    }
    for (const graph::Edge& e : ctx.ddg().graph().edges()) {
      m.add_constraint(lp::LinExpr(pi[e.dst]) - lp::LinExpr(pi[e.src]),
                       lp::Sense::GE, 1.0,
                       "piarc." + std::to_string(e.src) + "." +
                           std::to_string(e.dst));
    }
    for (int i = 0; i < nv; ++i) {
      for (int j = 0; j < nv; ++j) {
        if (i == j) continue;
        // Statically ordered pairs are already covered by pi along paths.
        if (ctx.surely_dead_before(i, j) || ctx.surely_dead_before(j, i)) {
          continue;
        }
        const ddg::NodeId vj = ctx.value_node(j);
        const std::string pid =
            "p." + std::to_string(i) + "." + std::to_string(j);
        // p <=> kill_i <= def_j, i.e. def_j - kill_i >= 0.
        const lp::Var p = m.add_binary(pid);
        lp::LinExpr defj_minus_killi =
            lp::LinExpr(skel.sigma[vj]) - lp::LinExpr(skel.kill[i]);
        defj_minus_killi.add_constant(
            static_cast<double>(ctx.ddg().op(vj).delta_w));
        lp::add_iff_ge(m, p, defj_minus_killi, 0.0, pid);
        // If p then every added arc (reader of i -> vj) must go forward
        // in the pi order: pi_vj >= pi_reader + 1 - n (1 - p).
        for (const ddg::NodeId reader : ctx.cons(i)) {
          if (reader == vj) continue;
          lp::LinExpr order = lp::LinExpr(pi[vj]) - lp::LinExpr(pi[reader]);
          order.add(p, -static_cast<double>(n));
          m.add_constraint(order, lp::Sense::GE, 1.0 - static_cast<double>(n),
                           pid + ".r" + std::to_string(reader));
        }
      }
    }
  }

  // Objective: minimize the total schedule time sigma(⊥).
  m.set_objective(lp::LinExpr(skel.sigma[*ctx.ddg().bottom()]),
                  /*maximize=*/false);

  ReduceIlpResult result;
  result.variables = m.var_count();
  result.constraints = m.constraint_count();
  const lp::MipResult mip = lp::solve_mip(m, opts.mip, solve);
  result.nodes = mip.nodes;
  result.stats = mip.stats;
  if (mip.status == lp::MipStatus::Infeasible) {
    result.status = ReduceStatus::SpillNeeded;  // at this R; caller decrements
    return result;
  }
  if (!mip.has_solution()) {
    result.status = ReduceStatus::LimitHit;
    return result;
  }
  result.status = ReduceStatus::Reduced;
  result.colors_used = R;
  result.sigma = schedule_from_solution(skel, mip.x);
  result.makespan = static_cast<sched::Time>(std::llround(mip.objective));
  result.achieved_rn =
      sched::register_need(ctx.ddg(), ctx.type(), result.sigma);
  ExtensionResult ext = extend_by_schedule(ctx, result.sigma);
  if (!ext.is_dag && !opts.forbid_circuits) {
    // The witness schedule's extension lost the DAG property (read/write
    // tie circuits, or negative-latency arcs on VLIW). Re-solve with the
    // paper's O(n^3) topological-sort-existence block enabled.
    ReduceIlpOptions strict = opts;
    strict.forbid_circuits = true;
    ReduceIlpResult again = reduce_ilp_fixed(ctx, R, strict, solve);
    again.stats.merge(result.stats);
    return again;
  }
  RS_CHECK(ext.is_dag);
  result.arcs_added = ext.arcs_added;
  result.critical_path = graph::critical_path(ext.extended.graph());
  result.extended = std::move(ext.extended);
  return result;
}

ReduceIlpResult reduce_ilp(const TypeContext& ctx, int R,
                           const ReduceIlpOptions& opts,
                           const support::SolveContext& solve) {
  support::SolveStats loop;
  ReduceIlpResult last;
  for (int r = R; r >= 1; --r) {
    last = reduce_ilp_fixed(ctx, r, opts, solve);
    loop.merge(last.stats);
    last.stats = loop;
    if (last.status == ReduceStatus::Reduced ||
        last.status == ReduceStatus::LimitHit) {
      return last;
    }
  }
  // Even one register is impossible: spilling is unavoidable (section 4).
  last.status = ReduceStatus::SpillNeeded;
  return last;
}

}  // namespace rs::core
