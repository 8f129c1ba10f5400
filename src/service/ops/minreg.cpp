// The `minreg` operation: the literature's register *minimization*
// baseline the paper argues against (section 6, figure 2(b)) —
// core::minimize_register_need per register type, freezing each minimal-
// need schedule into the DAG via the Theorem-4.2 arc construction. Types
// are minimized in order on the evolving DAG, so later types respect the
// arcs earlier types added (the same composition ensure_limits uses).
#include <limits>
#include <utility>

#include "core/min_reg.hpp"
#include "ddg/io.hpp"
#include "graph/paths.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  return {
      .name = "minreg",
      .digest_tag = 2,
      .options =
          {// Makespan budget in cycles. cp=0 is the documented spelling of
           // the default (the critical path, the paper's footnote-4 "under
           // critical path constraints"), so it digests the same as unset.
           {.name = "cp",
            .kind = OptionKind::Count,
            .max = std::numeric_limits<long long>::max(),
            .digest_slot = 0},
           // Minimization has only the exact engine: engine= accepts
           // exact|portfolio and, selecting nothing, is not digested.
           {.name = "engine", .kind = OptionKind::ExactOnly},
           // Not digested: it only shows the cached DDG (reduce.cpp).
           {.name = "emit", .kind = OptionKind::Emit}},
      .result = {.count_key = "nm",
                 .entry_prefix = "m",
                 .columns = {{"need"}, {"proven", CellKind::Flag}, {"arcs"}},
                 // Critical path of the final extended DAG.
                 .scalars = {{"mcp", "cp"}},
                 .renders_success = true},
  };
}

class MinRegOperation final : public Operation {
 public:
  MinRegOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv&,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    // Types minimized in order on one DAG; no fan-out.
    const sched::Time cp_budget = option_value(req, "cp");
    if (cp_budget > 0) {
      const auto cp = graph::critical_path(normalized.graph());
      RS_REQUIRE(cp_budget >= cp,
                 "cp=" + std::to_string(cp_budget) +
                     " is below the critical path (" + std::to_string(cp) +
                     "); no schedule fits");
    }
    auto data = std::make_shared<OpData>(spec().result);
    ddg::Ddg cur = normalized;
    bool all_proven = true;
    for (ddg::RegType t = 0; t < cur.type_count(); ++t) {
      const core::TypeContext ctx(cur, t);
      core::MinRegResult r = core::minimize_register_need(
          ctx, cp_budget, core::SrcOptions{}, solve);
      out->stats.merge(r.stats);
      data->add_row({t, r.min_need, r.proven, r.arcs_added});
      all_proven = all_proven && r.proven;
      // Later types minimize on the extended DAG, so the final DAG freezes
      // every type's minimal-need schedule simultaneously.
      if (r.extended.has_value()) cur = std::move(*r.extended);
    }
    data->scalar("cp") = graph::critical_path(cur.graph());
    out->success = all_proven;
    out->out_ddg = ddg::to_text(cur);
    out->data = std::move(data);
  }
};

}  // namespace

const Operation& minreg_operation() {
  static const MinRegOperation op;
  return op;
}

}  // namespace rs::service::ops
