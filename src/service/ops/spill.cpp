// The `spill` operation: graph-level spill insertion, the paper's stated
// future work (section 7) — core::spill_and_reduce per register type:
// iteratively split a saturating value's lifetime through memory
// (store/reload pair) and re-run reduction until RS fits the limit or the
// spill budget is exhausted. Types run in order on the evolving DAG.
#include <utility>

#include "core/spill.hpp"
#include "ddg/io.hpp"
#include "graph/paths.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  return {
      .name = "spill",
      .digest_tag = 3,
      .example_options = "limits=2,2",
      .options = {{.name = "limits",
                   .kind = OptionKind::Limits,
                   .required = true,
                   .digest_slot = 1},
                  // Cap on inserted store/reload pairs per type.
                  {.name = "max_spills",
                   .kind = OptionKind::Count,
                   .def = core::SpillOptions{}.max_spills,
                   .digest_slot = 0},
                  // Not digested: it only shows the cached DDG (reduce.cpp).
                  {.name = "emit", .kind = OptionKind::Emit}},
      // Per type: the outcome, the store/reload pairs added, and the
      // witnessed RS after spilling + reduction (for non-fit statuses the
      // last witnessed estimate, above the limit; 0 = interrupted unknown).
      .result = {.count_key = "ns",
                 .entry_prefix = "s",
                 .columns = {{"status", CellKind::Status},
                             {"spills"},
                             {"rs"}},
                 // Critical path of the final rewritten DAG.
                 .scalars = {{"scp", "cp"}},
                 .renders_success = true},
  };
}

class SpillOperation final : public Operation {
 public:
  SpillOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv&,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    // Single-block sequential pipeline; no fan-out.
    const std::vector<int>& limits = limits_of(req, normalized.type_count());
    core::SpillOptions sopts;
    sopts.max_spills = static_cast<int>(option_value(req, "max_spills"));
    auto data = std::make_shared<OpData>(spec().result);
    ddg::Ddg cur = normalized;
    bool all_fit = true;
    for (ddg::RegType t = 0; t < cur.type_count(); ++t) {
      const core::TypeContext ctx(cur, t);
      core::SpillResult r =
          core::spill_and_reduce(ctx, limits[t], sopts, solve);
      out->stats.merge(r.stats);
      data->add_row({t, static_cast<long long>(r.status), r.spills_inserted,
                     r.achieved_rs});
      all_fit = all_fit && (r.status == core::ReduceStatus::AlreadyFits ||
                            r.status == core::ReduceStatus::Reduced);
      cur = std::move(r.out);
    }
    data->scalar("cp") = graph::critical_path(cur.graph());
    out->success = all_fit;
    if (!all_fit) out->error = "spill budget exhausted before limits held";
    out->out_ddg = ddg::to_text(cur);
    out->data = std::move(data);
  }
};

}  // namespace

const Operation& spill_operation() {
  static const SpillOperation op;
  return op;
}

}  // namespace rs::service::ops
