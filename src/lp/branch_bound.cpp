#include "lp/branch_bound.hpp"

#include <algorithm>
#include <cmath>

#include "lp/simplex.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace rs::lp {

namespace {

constexpr double kIntTol = 1e-6;

struct Search {
  const Model& model;
  const MipOptions& opts;
  const support::SolveContext& solve;
  SimplexSolver simplex;

  std::vector<double> lo, hi;
  std::vector<double> best_x;
  double best_obj = 0.0;
  bool have_incumbent = false;
  bool complete = true;  // no limit hit, no LP failure
  bool node_limit_hit = false;
  long nodes = 0;
  long long prunes = 0;
  long long simplex_iterations = 0;
  long long simplex_phase1_iterations = 0;
  long long bound_improvements = 0;
  int max_depth = 0;
  bool maximize;
  /// Mid-LP interruption (request cancel, deadline): without it a long
  /// relaxation pins the search until the next per-node limits_hit check.
  std::function<bool()> lp_stop;

  Search(const Model& m, const MipOptions& o, const support::SolveContext& s)
      : model(m), opts(o), solve(s), simplex(m), maximize(m.maximize()) {
    lp_stop = [this] { return this->solve.stop_requested(); };
    lo.resize(m.var_count());
    hi.resize(m.var_count());
    for (int j = 0; j < m.var_count(); ++j) {
      lo[j] = m.var(j).lo;
      hi[j] = m.var(j).hi;
      if (m.var(j).kind != VarKind::Continuous) {
        RS_REQUIRE(std::isfinite(lo[j]) && std::isfinite(hi[j]),
                   "integer variable needs finite bounds: " + m.var(j).name);
        // Round bounds inward to integers once, up front.
        lo[j] = std::ceil(lo[j] - kIntTol);
        hi[j] = std::floor(hi[j] + kIntTol);
      }
    }
  }

  bool limits_hit() {
    // Cancel flag every node, deadline clock every kPollInterval nodes:
    // no clock syscall in the per-node hot path.
    if (solve.should_stop(nodes)) return true;
    if (opts.node_limit > 0 && nodes >= opts.node_limit) {
      node_limit_hit = true;
      return true;
    }
    return false;
  }

  /// True when `candidate` improves on the incumbent.
  bool improves(double candidate) const {
    if (!have_incumbent) return true;
    return maximize ? candidate > best_obj + 1e-9
                    : candidate < best_obj - 1e-9;
  }

  /// Can a node with the given LP bound still beat the incumbent?
  bool bound_can_improve(double lp_bound) const {
    if (!have_incumbent) return true;
    double b = lp_bound;
    if (opts.objective_integral) {
      b = maximize ? std::floor(b + kIntTol) : std::ceil(b - kIntTol);
    }
    return maximize ? b > best_obj + 1e-9 : b < best_obj - 1e-9;
  }

  void dfs(int depth) {
    if (limits_hit()) {
      complete = false;
      return;
    }
    ++nodes;
    max_depth = std::max(max_depth, depth);
    const LpResult lp =
        simplex.solve_with_bounds(lo, hi, opts.lp_iteration_limit, lp_stop);
    simplex_iterations += lp.iterations;
    simplex_phase1_iterations += lp.phase1_iterations;
    if (lp.status == LpStatus::Infeasible) return;
    if (lp.status != LpStatus::Optimal) {
      // Unbounded relaxations cannot be pruned soundly; our models are
      // always bounded, so treat any non-optimal outcome as a failure that
      // forfeits the optimality proof for this subtree.
      complete = false;
      return;
    }
    if (!bound_can_improve(lp.objective)) {
      ++prunes;
      return;
    }

    // Most-fractional integer variable.
    int branch_var = -1;
    double branch_val = 0.0;
    double best_frac_dist = kIntTol;
    for (int j = 0; j < model.var_count(); ++j) {
      if (model.var(j).kind == VarKind::Continuous) continue;
      const double v = lp.x[j];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        branch_var = j;
        branch_val = v;
      }
    }

    if (branch_var < 0) {
      // Integral LP optimum: candidate incumbent. Snap and verify.
      std::vector<double> x = lp.x;
      for (int j = 0; j < model.var_count(); ++j) {
        if (model.var(j).kind != VarKind::Continuous) x[j] = std::round(x[j]);
      }
      if (model.is_feasible(x, 1e-5)) {
        const double obj = model.objective_value(x);
        if (improves(obj)) {
          best_obj = obj;
          best_x = std::move(x);
          have_incumbent = true;
          ++bound_improvements;
        }
      } else {
        // Rounding broke feasibility (numerically marginal basic solution);
        // losing this candidate only costs bound quality, not soundness,
        // because the subtree is explored via branching anyway.
        complete = complete && true;
      }
      return;
    }

    const double floor_v = std::floor(branch_val);
    const double save_lo = lo[branch_var];
    const double save_hi = hi[branch_var];
    const bool down_first = (branch_val - floor_v) < 0.5;

    auto down = [&] {
      hi[branch_var] = floor_v;
      if (lo[branch_var] <= hi[branch_var]) dfs(depth + 1);
      hi[branch_var] = save_hi;
    };
    auto up = [&] {
      lo[branch_var] = floor_v + 1.0;
      if (lo[branch_var] <= hi[branch_var]) dfs(depth + 1);
      lo[branch_var] = save_lo;
    };
    if (down_first) {
      down();
      up();
    } else {
      up();
      down();
    }
  }
};

}  // namespace

MipResult solve_mip(const Model& model, const MipOptions& options,
                    const support::SolveContext& solve) {
  Search search(model, options, solve);
  support::Timer timer;
  search.dfs(0);
  const double elapsed = timer.seconds();

  if (const support::SolverProfile* prof = solve.profile()) {
    prof->bb_nodes->inc(static_cast<std::uint64_t>(search.nodes));
    prof->bb_bound_improvements->inc(
        static_cast<std::uint64_t>(search.bound_improvements));
    prof->bb_max_depth->observe(static_cast<double>(search.max_depth));
    if (elapsed > 0 && search.nodes > 0) {
      prof->bb_nodes_per_sec->observe(static_cast<double>(search.nodes) /
                                      elapsed);
    }
    prof->simplex_phase1_iterations->inc(
        static_cast<std::uint64_t>(search.simplex_phase1_iterations));
    prof->simplex_phase2_iterations->inc(
        static_cast<std::uint64_t>(search.simplex_iterations));
  }

  MipResult result;
  result.nodes = search.nodes;
  result.stats.nodes = search.nodes;
  result.stats.prunes = search.prunes;
  result.stats.simplex_iterations = search.simplex_iterations;
  result.stats.solves = 1;
  if (search.complete) {
    result.stats.stop = support::StopCause::Proven;
  } else {
    result.stats.stop = solve.cause_now(search.node_limit_hit);
    if (result.stats.stop == support::StopCause::Proven) {
      // Neither deadline, token, nor node cap fired: an LP-level failure
      // (iteration limit / unbounded relaxation) forfeited the proof.
      result.stats.stop = support::StopCause::LimitHit;
    }
  }
  solve.record(result.stats);
  if (search.have_incumbent) {
    result.objective = search.best_obj;
    result.x = std::move(search.best_x);
    result.status = search.complete ? MipStatus::Optimal : MipStatus::Feasible;
    result.best_bound = search.complete ? search.best_obj : result.objective;
  } else {
    result.status = search.complete ? MipStatus::Infeasible : MipStatus::Unknown;
  }
  return result;
}

}  // namespace rs::lp
