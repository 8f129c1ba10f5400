#include "core/reduce.hpp"

#include <algorithm>
#include <tuple>

#include "core/rs_exact.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace rs::core {

ReduceResult reduce_optimal(const TypeContext& ctx, int R,
                            const ReduceOptions& opts,
                            const support::SolveContext& solve) {
  ReduceResult result;
  result.original_cp = graph::critical_path(ctx.ddg().graph());

  int rs_upper = opts.rs_upper;
  bool rs_proven = true;
  if (rs_upper < 0) {
    const RsExactResult rs = rs_exact(ctx, RsExactOptions{}, solve);
    result.stats.merge(rs.stats);
    rs_upper = rs.rs;
    rs_proven = rs.proven;
  }
  if (rs_proven && rs_upper <= R) {
    result.status = ReduceStatus::AlreadyFits;
    result.extended = ctx.ddg();
    result.achieved_rs = rs_upper;
    result.critical_path = result.original_cp;
    return result;
  }

  SrcOptions src = opts.src;
  src.acyclic_extension = true;  // paper, end of section 4

  SrcSolver solver(ctx, R);
  const SrcResult r = solver.reduce_lexicographic(rs_upper, src, solve);
  result.nodes = r.nodes;
  result.stats.merge(r.stats);
  if (!r.feasible) {
    result.status = r.status == SrcStatus::Proven ? ReduceStatus::SpillNeeded
                                                  : ReduceStatus::LimitHit;
    result.critical_path = result.original_cp;  // G is left unchanged
    return result;
  }
  ExtensionResult ext = extend_by_schedule(ctx, r.sigma);
  RS_CHECK(ext.is_dag);
  result.status = ReduceStatus::Reduced;
  result.achieved_rs = r.rn;
  result.critical_path = graph::critical_path(ext.extended.graph());
  result.arcs_added = ext.arcs_added;
  result.extended = std::move(ext.extended);
  return result;
}

ReduceResult reduce_greedy(const TypeContext& ctx, int R,
                           const ReduceOptions& opts,
                           const support::SolveContext& solve) {
  ReduceResult result;
  result.original_cp = graph::critical_path(ctx.ddg().graph());

  ddg::Ddg current = ctx.ddg();
  int arcs_added = 0;
  long long rounds_run = 0;
  long long candidates_evaluated = 0;
  // Flushed once on every exit path, next to the result handoff.
  const auto flush_profile = [&] {
    if (const support::SolverProfile* prof = solve.profile()) {
      prof->reduce_rounds->inc(static_cast<std::uint64_t>(rounds_run));
      prof->reduce_candidates->inc(
          static_cast<std::uint64_t>(candidates_evaluated));
    }
  };
  for (int round = 0; round < opts.max_rounds; ++round) {
    if (solve.stop_requested()) {
      // Interrupted between serialization rounds: report the partially
      // reduced graph (valid, just not yet within the limit).
      result.status = ReduceStatus::LimitHit;
      result.stats.stop = support::worse_cause(result.stats.stop,
                                               solve.cause_now(false));
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }
    ++rounds_run;
    const TypeContext cur_ctx(current, ctx.type());
    const RsEstimate est = greedy_k(cur_ctx, opts.greedy, solve);
    result.stats.merge(est.stats);
    if (est.rs <= R) {
      result.status = round == 0 ? ReduceStatus::AlreadyFits
                                 : ReduceStatus::Reduced;
      result.achieved_rs = est.rs;
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }

    // Candidate serializations between saturating values; keep those that
    // preserve the DAG property, ranked by critical-path increase.
    struct Candidate {
      int i, j;
      sched::Time cp;
      std::vector<SerialArc> arcs;
    };
    std::vector<Candidate> candidates;
    for (const int i : est.antichain) {
      for (const int j : est.antichain) {
        if (i == j) continue;
        std::vector<SerialArc> arcs = pair_serialization_arcs(cur_ctx, i, j);
        if (arcs.empty()) continue;  // pair already ordered
        graph::Digraph trial = current.graph();
        for (const SerialArc& a : arcs) trial.add_edge(a.src, a.dst, a.latency);
        if (!graph::is_dag(trial)) continue;  // would lose the DAG property
        candidates.push_back(
            Candidate{i, j, graph::critical_path(trial), std::move(arcs)});
      }
    }
    if (candidates.empty()) {
      result.status = ReduceStatus::SpillNeeded;
      result.achieved_rs = est.rs;
      result.critical_path = graph::critical_path(current.graph());
      result.arcs_added = arcs_added;
      result.extended = std::move(current);
      flush_profile();
      return result;
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tuple(a.cp, a.arcs.size(), a.i, a.j) <
                       std::tuple(b.cp, b.arcs.size(), b.i, b.j);
              });
    // Among the critical-path-minimal candidates, pick the one whose
    // application drops the heuristic saturation the most (evaluate a few).
    const sched::Time best_cp = candidates.front().cp;
    int evaluated = 0;
    int best_rs = -1;
    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (c.cp != best_cp || evaluated >= 8) break;
      ++evaluated;
      ddg::Ddg trial = current;
      for (const SerialArc& a : c.arcs) {
        trial.add_serial(a.src, a.dst, a.latency);
      }
      const TypeContext trial_ctx(trial, ctx.type());
      const RsEstimate trial_est = greedy_k(trial_ctx, opts.greedy, solve);
      result.stats.merge(trial_est.stats);
      const int rs_after = trial_est.rs;
      if (best == nullptr || rs_after < best_rs) {
        best = &c;
        best_rs = rs_after;
      }
    }
    RS_CHECK(best != nullptr);
    candidates_evaluated += evaluated;
    for (const SerialArc& a : best->arcs) {
      current.add_serial(a.src, a.dst, a.latency);
    }
    arcs_added += static_cast<int>(best->arcs.size());
  }
  result.status = ReduceStatus::LimitHit;
  result.stats.stop = support::worse_cause(result.stats.stop,
                                           support::StopCause::LimitHit);
  result.critical_path = graph::critical_path(current.graph());
  result.arcs_added = arcs_added;
  result.extended = std::move(current);
  flush_profile();
  return result;
}

}  // namespace rs::core
