#include "core/extension.hpp"

#include <set>
#include <utility>

#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/assert.hpp"

namespace rs::core {

namespace {

/// Calls fn(arc) for each arc of sigma's extension, in insertion order.
template <typename Fn>
void for_each_extension_arc(const TypeContext& ctx,
                            const sched::Schedule& sigma, Fn&& fn) {
  const std::vector<sched::Lifetime> lts =
      sched::lifetimes(ctx.ddg(), ctx.type(), sigma);
  const int nv = ctx.value_count();
  for (int i = 0; i < nv; ++i) {
    for (int j = 0; j < nv; ++j) {
      if (i == j) continue;
      // LT(i) before LT(j) under sigma (left-open: kill <= def suffices).
      if (lts[i].kill > lts[j].def) continue;
      // Symmetric empty-interval ties: orient one way only, by (def, index).
      if (lts[j].kill <= lts[i].def &&
          std::make_pair(lts[j].def, j) < std::make_pair(lts[i].def, i)) {
        continue;
      }
      for (const SerialArc& a : pair_serialization_arcs(ctx, i, j)) fn(a);
    }
  }
}

}  // namespace

std::vector<SerialArc> pair_serialization_arcs(const TypeContext& ctx, int i,
                                               int j) {
  const ddg::NodeId vj = ctx.value_node(j);
  std::vector<SerialArc> arcs;
  for (const ddg::NodeId reader : ctx.cons(i)) {  // distinct readers
    if (reader == vj) continue;  // the "v in Cons(u)" case skips v itself
    const ddg::Latency lat =
        ctx.ddg().op(reader).delta_r - ctx.ddg().op(vj).delta_w;
    if (ctx.lp().reaches(reader, vj) && ctx.lp().lp(reader, vj) >= lat) {
      continue;
    }
    arcs.push_back(SerialArc{reader, vj, lat});
  }
  return arcs;
}

ExtensionResult extend_by_schedule(const TypeContext& ctx,
                                   const sched::Schedule& sigma) {
  RS_REQUIRE(sched::is_valid(ctx.ddg(), sigma), "invalid schedule");
  ExtensionResult result{ctx.ddg(), 0, true};
  std::set<std::pair<ddg::NodeId, ddg::NodeId>> added;
  for_each_extension_arc(ctx, sigma, [&](const SerialArc& a) {
    if (!added.insert({a.src, a.dst}).second) return;
    result.extended.add_serial(a.src, a.dst, a.latency);
    ++result.arcs_added;
  });
  result.is_dag = graph::is_dag(result.extended.graph());
  return result;
}

bool extension_is_acyclic(const TypeContext& ctx,
                          const sched::Schedule& sigma) {
  // Kahn's algorithm over ctx's graph plus the arcs. A repeated arc closes
  // no circuit its first copy does not, so none is deduplicated.
  const graph::Digraph& g = ctx.ddg().graph();
  const int n = g.node_count();
  std::vector<int> indeg(n, 0);
  for (const graph::Edge& e : g.edges()) ++indeg[e.dst];
  std::vector<std::vector<ddg::NodeId>> extra(n);
  for_each_extension_arc(ctx, sigma, [&](const SerialArc& a) {
    extra[a.src].push_back(a.dst);
    ++indeg[a.dst];
  });
  std::vector<ddg::NodeId> ready;
  for (ddg::NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  int done = 0;
  while (!ready.empty()) {
    const ddg::NodeId v = ready.back();
    ready.pop_back();
    ++done;
    for (const graph::EdgeId e : g.out_edges(v)) {
      if (--indeg[g.edge(e).dst] == 0) ready.push_back(g.edge(e).dst);
    }
    for (const ddg::NodeId w : extra[v]) {
      if (--indeg[w] == 0) ready.push_back(w);
    }
  }
  return done == n;
}

}  // namespace rs::core
