#include "core/src_solver.hpp"

#include <algorithm>

#include "core/extension.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/assert.hpp"

namespace rs::core {

namespace {

struct Dfs {
  const TypeContext& ctx;
  const SrcOptions& opts;
  const support::SolveContext& solve;
  int R;
  sched::Time P;
  int rn_target;

  // Only ops that define or read a type-t value get explicit issue times;
  // every other op (address arithmetic, other-typed work) is scheduled
  // as-soon-as-possible implicitly — ASAP dominates for both feasibility
  // and makespan, and such ops cannot change the type-t register need.
  std::vector<bool> relevant;
  std::vector<graph::NodeId> order;  // topological order of relevant ops
  std::vector<std::int64_t> lpf;     // longest path to sinks
  std::vector<sched::Time> earliest; // implied earliest issue per op
  std::vector<sched::Time> sigma;    // -1 = not explicitly scheduled
  long nodes = 0;
  long long prunes = 0;
  bool truncated = false;
  bool node_limit_hit = false;
  bool found = false;
  sched::Schedule witness;

  Dfs(const TypeContext& c, const SrcOptions& o,
      const support::SolveContext& s, int r, sched::Time p, int tgt)
      : ctx(c), opts(o), solve(s), R(r), P(p), rn_target(tgt) {
    const graph::Digraph& g = ctx.ddg().graph();
    const auto topo = graph::topo_order(g);
    RS_REQUIRE(topo.has_value(), "SRC needs an acyclic DDG");
    relevant.assign(g.node_count(), false);
    for (int i = 0; i < ctx.value_count(); ++i) {
      relevant[ctx.value_node(i)] = true;
      for (const ddg::NodeId v : ctx.cons(i)) relevant[v] = true;
    }
    for (const graph::NodeId v : *topo) {
      if (relevant[v]) order.push_back(v);
    }
    lpf = graph::longest_path_from(g);
    earliest.resize(g.node_count());
    const auto asap = graph::longest_path_to(g);
    for (int v = 0; v < g.node_count(); ++v) earliest[v] = asap[v];
    sigma.assign(g.node_count(), -1);
  }

  bool limits_hit() {
    // Cancel flag every node, deadline clock coarsely (see SolveContext).
    if (solve.should_stop(nodes)) return true;
    if (opts.node_limit > 0 && nodes >= opts.node_limit) {
      node_limit_hit = true;
      return true;
    }
    return false;
  }

  /// Monotone lower bound on the register need of any completion: defined
  /// values certainly live from their write until max(assigned reads,
  /// earliest possible remaining reads); these only grow as times get fixed.
  int partial_rn_lower_bound() const {
    std::vector<std::pair<sched::Time, int>> events;
    for (int i = 0; i < ctx.value_count(); ++i) {
      const ddg::NodeId u = ctx.value_node(i);
      if (sigma[u] < 0) continue;
      const sched::Time def = sigma[u] + ctx.ddg().op(u).delta_w;
      sched::Time kill = def;
      for (const ddg::NodeId v : ctx.cons(i)) {
        const sched::Time read =
            (sigma[v] >= 0 ? sigma[v] : earliest[v]) + ctx.ddg().op(v).delta_r;
        kill = std::max(kill, read);
      }
      if (kill > def) {
        events.emplace_back(def + 1, +1);
        events.emplace_back(kill + 1, -1);
      }
    }
    std::sort(events.begin(), events.end());
    int live = 0, peak = 0;
    for (const auto& [t, d] : events) {
      live += d;
      peak = std::max(peak, live);
    }
    return peak;
  }

  /// Admissible upper bound on the register need any completion can still
  /// reach: every value gets its most optimistic interval — definition as
  /// early as still possible, kill as late as any unscheduled consumer
  /// could read — and the bound is the peak overlap of those intervals.
  int rn_upper_bound() const {
    std::vector<std::pair<sched::Time, int>> events;
    for (int i = 0; i < ctx.value_count(); ++i) {
      const ddg::NodeId u = ctx.value_node(i);
      const sched::Time def =
          (sigma[u] >= 0 ? sigma[u] : earliest[u]) + ctx.ddg().op(u).delta_w;
      sched::Time kill = def;
      for (const ddg::NodeId v : ctx.cons(i)) {
        const sched::Time read =
            (sigma[v] >= 0 ? sigma[v] : P - lpf[v]) + ctx.ddg().op(v).delta_r;
        kill = std::max(kill, read);
      }
      if (kill > def) {
        events.emplace_back(def + 1, +1);
        events.emplace_back(kill + 1, -1);
      }
    }
    std::sort(events.begin(), events.end());
    int live = 0, peak = 0;
    for (const auto& [t, d] : events) {
      live += d;
      peak = std::max(peak, live);
    }
    return peak;
  }

  /// Raises earliest[] after fixing `u` at time `t`, treating irrelevant
  /// ops as issued at their earliest time (so updates flow through them
  /// transitively). Returns an undo list.
  std::vector<std::pair<graph::NodeId, sched::Time>> propagate(
      graph::NodeId u, sched::Time t) {
    const graph::Digraph& g = ctx.ddg().graph();
    std::vector<std::pair<graph::NodeId, sched::Time>> saved;
    std::vector<graph::NodeId> work;
    auto raise = [&](graph::NodeId v, sched::Time val) {
      if (val <= earliest[v]) return;
      saved.emplace_back(v, earliest[v]);
      earliest[v] = val;
      if (!relevant[v]) work.push_back(v);  // implicit schedule moved
    };
    for (const graph::EdgeId e : g.out_edges(u)) {
      raise(g.edge(e).dst, t + g.edge(e).latency);
    }
    while (!work.empty()) {
      const graph::NodeId v = work.back();
      work.pop_back();
      for (const graph::EdgeId e : g.out_edges(v)) {
        raise(g.edge(e).dst, earliest[v] + g.edge(e).latency);
      }
    }
    return saved;
  }

  bool dfs(std::size_t depth) {
    if (limits_hit()) {
      truncated = true;
      return false;
    }
    ++nodes;
    if (partial_rn_lower_bound() > R) {
      ++prunes;
      return false;
    }
    if (rn_target > 0 && rn_upper_bound() < rn_target) {
      ++prunes;
      return false;
    }
    if (depth == order.size()) {
      sched::Schedule s;
      s.time = sigma;
      for (graph::NodeId v = 0; v < ctx.ddg().op_count(); ++v) {
        if (s.time[v] < 0) s.time[v] = earliest[v];  // implicit ASAP
      }
      RS_CHECK(sched::is_valid(ctx.ddg(), s));
      const int rn = sched::register_need(ctx.ddg(), ctx.type(), s);
      if (rn > R || rn < rn_target) return false;
      if (opts.acyclic_extension && !extension_is_acyclic(ctx, s)) return false;
      witness = std::move(s);
      found = true;
      return true;
    }
    const graph::NodeId u = order[depth];
    const sched::Time lo = earliest[u];
    const sched::Time hi = P - lpf[u];
    // Value definitions try early issue first; pure consumers try late
    // issue first when chasing a register-need target (late reads stretch
    // lifetimes), early first otherwise (denser schedules, smaller trees).
    const bool descending =
        rn_target > 0 && !ctx.ddg().op(u).writes_type(ctx.type());
    for (sched::Time step = 0; step <= hi - lo; ++step) {
      const sched::Time t = descending ? hi - step : lo + step;
      sigma[u] = t;
      const auto saved = propagate(u, t);
      const bool ok = dfs(depth + 1);
      for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        earliest[it->first] = it->second;
      }
      if (ok) return true;
      if (truncated) break;
    }
    sigma[u] = -1;
    return false;
  }
};

}  // namespace

SrcSolver::SrcSolver(const TypeContext& ctx, int R) : ctx_(ctx), R_(R) {
  RS_REQUIRE(R >= 1, "need at least one register");
}

SrcResult SrcSolver::feasible(sched::Time P, int rn_target,
                              const SrcOptions& opts,
                              const support::SolveContext& solve) {
  Dfs dfs(ctx_, opts, solve, R_, P, rn_target);
  if (graph::critical_path(ctx_.ddg().graph()) <= P) {
    dfs.dfs(0);
  }
  SrcResult res;
  res.nodes = dfs.nodes;
  res.status = dfs.truncated ? SrcStatus::LimitHit : SrcStatus::Proven;
  res.feasible = dfs.found;
  res.stats.nodes = dfs.nodes;
  res.stats.prunes = dfs.prunes;
  res.stats.solves = 1;
  res.stats.stop = dfs.truncated ? solve.cause_now(dfs.node_limit_hit)
                                 : support::StopCause::Proven;
  solve.record(res.stats);
  if (dfs.found) {
    res.sigma = dfs.witness;
    res.makespan = 0;
    for (graph::NodeId v = 0; v < ctx_.ddg().op_count(); ++v) {
      res.makespan = std::max(
          res.makespan, res.sigma.time[v] + ctx_.ddg().op(v).latency);
    }
    res.rn = sched::register_need(ctx_.ddg(), ctx_.type(), res.sigma);
  }
  return res;
}

SrcResult SrcSolver::minimize_makespan(const SrcOptions& opts,
                                       const support::SolveContext& solve) {
  const sched::Time cp = graph::critical_path(ctx_.ddg().graph());
  support::SolveStats sweep;
  SrcResult last;
  for (sched::Time P = cp; P <= cp + opts.slack_limit; ++P) {
    last = feasible(P, 0, opts, solve);
    sweep.merge(last.stats);
    last.stats = sweep;
    last.nodes = sweep.nodes;
    if (last.feasible) return last;
    if (last.status == SrcStatus::LimitHit) return last;
  }
  // Exhausted the slack window without a witness: infeasible within budget.
  last.status = SrcStatus::LimitHit;
  last.feasible = false;
  last.stats.stop = support::worse_cause(last.stats.stop,
                                         support::StopCause::LimitHit);
  return last;
}

SrcResult SrcSolver::reduce_lexicographic(int rs_upper, const SrcOptions& opts,
                                          const support::SolveContext& solve) {
  const sched::Time cp = graph::critical_path(ctx_.ddg().graph());
  support::SolveStats sweep;
  for (int goal = std::min(R_, rs_upper); goal >= 1; --goal) {
    for (sched::Time P = cp; P <= cp + opts.slack_limit; ++P) {
      SrcResult r = feasible(P, goal, opts, solve);
      sweep.merge(r.stats);
      r.stats = sweep;
      r.nodes = sweep.nodes;
      if (r.feasible) return r;
      if (r.status == SrcStatus::LimitHit) return r;
    }
  }
  SrcResult res;
  res.feasible = false;
  res.status = SrcStatus::Proven;  // exhausted all goals within windows
  res.stats = sweep;
  res.nodes = sweep.nodes;
  return res;
}

}  // namespace rs::core
