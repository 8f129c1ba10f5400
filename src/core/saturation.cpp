#include "core/saturation.hpp"

#include "core/greedy_k.hpp"
#include "core/rs_exact.hpp"
#include "core/rs_ilp.hpp"
#include "graph/paths.hpp"
#include "support/assert.hpp"

namespace rs::core {

bool SaturationReport::fits(const std::vector<int>& limits) const {
  RS_REQUIRE(limits.size() == per_type.size(), "one limit per register type");
  for (std::size_t t = 0; t < per_type.size(); ++t) {
    if (per_type[t].rs > limits[t]) return false;
  }
  return true;
}

SaturationReport analyze(const ddg::Ddg& ddg, const AnalyzeOptions& opts,
                         const support::SolveContext& solve) {
  SaturationReport report;
  for (ddg::RegType t = 0; t < ddg.type_count(); ++t) {
    // Even split of whatever budget is left over the types still to run.
    const support::SolveContext type_solve = solve.split(ddg.type_count() - t);
    TypeContext ctx(ddg, t);
    TypeSaturation ts;
    ts.type = t;
    ts.value_count = ctx.value_count();
    switch (opts.engine) {
      case RsEngine::Greedy: {
        const RsEstimate est = greedy_k(ctx, opts.greedy, type_solve);
        ts.rs = est.rs;
        ts.proven = false;
        ts.witness = est.witness;
        ts.stats = est.stats;
        break;
      }
      case RsEngine::ExactCombinatorial: {
        RsExactOptions ropts;
        ropts.greedy = opts.greedy;
        const RsExactResult res = rs_exact(ctx, ropts, type_solve);
        ts.rs = res.rs;
        ts.proven = res.proven;
        ts.witness = res.witness;
        ts.stats = res.stats;
        break;
      }
      case RsEngine::ExactIlp: {
        const RsIlpResult res = rs_ilp(ctx, RsIlpOptions{}, type_solve);
        ts.rs = res.rs;
        ts.proven = res.proven;
        ts.witness = res.witness;
        ts.stats = res.solve_stats;
        break;
      }
    }
    report.stats.merge(ts.stats);
    report.per_type.push_back(std::move(ts));
  }
  return report;
}

namespace {

// Verification step of the reduce pipeline, selected by the analyze engine:
// the combinatorial branch-and-bound for Greedy and ExactCombinatorial (the
// historical behavior, byte-identical) and the intLP for ExactIlp. Proven
// engines agree on RS, so the choice affects latency and stats, never the
// reduction decision.
struct VerifyOutcome {
  int rs = 0;
  support::SolveStats stats;
};

VerifyOutcome verify_rs(const TypeContext& ctx, const PipelineOptions& opts,
                        const support::SolveContext& solve) {
  VerifyOutcome v;
  switch (opts.analyze.engine) {
    case RsEngine::Greedy:
    case RsEngine::ExactCombinatorial: {
      const RsExactResult r = rs_exact(ctx, RsExactOptions{}, solve);
      v.rs = r.rs;
      v.stats = r.stats;
      break;
    }
    case RsEngine::ExactIlp: {
      const RsIlpResult r = rs_ilp(ctx, RsIlpOptions{}, solve);
      v.rs = r.rs;
      v.stats = r.solve_stats;
      break;
    }
  }
  return v;
}

}  // namespace

PipelineResult ensure_limits(const ddg::Ddg& ddg, const std::vector<int>& limits,
                             const PipelineOptions& opts,
                             const support::SolveContext& solve) {
  RS_REQUIRE(static_cast<int>(limits.size()) == ddg.type_count(),
             "one register limit per type");
  PipelineResult result{ddg, {}, true, {}, {}};

  for (ddg::RegType t = 0; t < ddg.type_count(); ++t) {
    RS_REQUIRE(limits[t] >= 1, "need at least one register per type");
    // Fast path (start of section 3): |V_{R,t}| <= R_t bounds RS trivially
    // (free, so it runs even under an expired or cancelled context).
    {
      const ddg::ValueSet vs(result.out, t);
      if (vs.count() <= limits[t]) {
        ReduceResult skip;
        skip.status = ReduceStatus::AlreadyFits;
        skip.achieved_rs = vs.count();
        skip.original_cp = graph::critical_path(result.out.graph());
        skip.critical_path = skip.original_cp;
        result.per_type.push_back(std::move(skip));
        continue;
      }
    }
    if (solve.stop_requested()) {
      // Interrupted between types: every remaining pressured type is
      // unprocessed.
      ReduceResult skip;
      skip.status = ReduceStatus::LimitHit;
      skip.stats.stop = solve.cause_now(false);
      skip.original_cp = graph::critical_path(result.out.graph());
      skip.critical_path = skip.original_cp;
      result.success = false;
      result.note += "type " + std::to_string(t) + ": " +
                     support::stop_cause_token(skip.stats.stop) +
                     " before reduction; ";
      result.stats.merge(skip.stats);
      result.per_type.push_back(std::move(skip));
      continue;
    }
    // Even split of the remaining budget over the types still to reduce.
    const support::SolveContext type_solve = solve.split(ddg.type_count() - t);
    ReduceOptions ropts = opts.reduce;
    TypeContext ctx(result.out, t);
    ReduceResult red = opts.exact_reduction
                           ? reduce_optimal(ctx, limits[t], ropts, type_solve)
                           : reduce_greedy(ctx, limits[t], ropts, type_solve);

    if (opts.verify && !opts.exact_reduction &&
        red.status == ReduceStatus::Reduced) {
      // The serialization heuristic stops on its own (lower-bound) RS
      // estimate; confirm with a proof-capable engine and tighten if
      // needed.
      for (int extra = 0; extra < 4; ++extra) {
        TypeContext vctx(*red.extended, t);
        const VerifyOutcome verify = verify_rs(vctx, opts, type_solve);
        red.stats.merge(verify.stats);
        if (verify.rs <= limits[t]) {
          red.achieved_rs = verify.rs;
          break;
        }
        ReduceOptions tighter = ropts;
        tighter.rs_upper = verify.rs;
        ReduceResult again = reduce_greedy(vctx, limits[t], tighter, type_solve);
        again.original_cp = red.original_cp;
        again.arcs_added += red.arcs_added;
        again.stats.merge(red.stats);
        red = std::move(again);
        if (red.status != ReduceStatus::Reduced) break;
      }
    }

    result.stats.merge(red.stats);
    switch (red.status) {
      case ReduceStatus::AlreadyFits:
      case ReduceStatus::Reduced:
        RS_CHECK(red.extended.has_value());
        result.out = *red.extended;
        break;
      case ReduceStatus::SpillNeeded:
        result.success = false;
        result.note += "type " + std::to_string(t) +
                       ": spilling unavoidable within limits; ";
        break;
      case ReduceStatus::LimitHit:
        result.success = false;
        result.note += "type " + std::to_string(t) +
                       ": reduction budget exhausted; ";
        break;
    }
    result.per_type.push_back(std::move(red));
  }
  return result;
}

}  // namespace rs::core
