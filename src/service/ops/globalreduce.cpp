// The `globalreduce` operation: the figure-1 reduction applied per block
// of an acyclic CFG against limits[t] - margin (cfg::ensure_limits), the
// paper's section-6 recipe for register-safe global scheduling — a global
// allocation may need one register above per-block MAXLIVE for cross-block
// moves, so every block targets the decremented limit.
#include <utility>

#include "cfg/global_rs.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  const core::PipelineOptions def;
  return {
      .name = "globalreduce",
      .digest_tag = 6,
      .payload = PayloadKind::Program,
      .example_options = "limits=6,6",
      .options =
          {{.name = "limits",
            .kind = OptionKind::Limits,
            .required = true,
            .digest_slot = 3},
           // Registers held back per type for cross-block moves.
           {.name = "margin",
            .kind = OptionKind::Count,
            .def = 1,
            .digest_slot = 0},
           // engine= came after this operation's digest froze: it is
           // appended only when not exact, so default requests keep their
           // older keys.
           {.name = "engine",
            .kind = OptionKind::Engine,
            .def = static_cast<long long>(def.analyze.engine),
            .digest_slot = 4,
            .digest_if_not_default = true},
           {.name = "exact",
            .kind = OptionKind::Flag,
            .def = def.exact_reduction,
            .digest_slot = 1},
           {.name = "verify",
            .kind = OptionKind::Flag,
            .def = def.verify,
            .digest_slot = 2}},
      // Rows keyed by canonical block (canonical_block_order), then type.
      .result = {.count_key = "ng",
                 .entry_prefix = "g",
                 .row_key = RowKey::BlockType,
                 .columns = {{"status", CellKind::Status}, {"rs"}, {"arcs"}},
                 .renders_success = true},
  };
}

class GlobalReduceOperation final : public Operation {
 public:
  GlobalReduceOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg&, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    RS_REQUIRE(req.program != nullptr,
               "globalreduce request carries no program payload");
    const cfg::Cfg& prog = *req.program;
    const cfg::GlobalReduceResult result = cfg::ensure_limits(
        prog, limits_of(req, prog.type_count()),
        static_cast<int>(option_value(req, "margin")), pipeline_options(req),
        solve, exec_from(env));
    out->blocks_parallel = result.blocks_parallel;
    out->success = result.success;
    if (!result.success) out->error = result.note;
    auto data = std::make_shared<OpData>(spec().result);
    const std::vector<int> order = canonical_block_order(prog);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const core::PipelineResult& block = result.details[order[i]];
      out->stats.merge(block.stats);
      for (ddg::RegType t = 0; t < prog.type_count(); ++t) {
        const core::ReduceResult& r = block.per_type[t];
        data->add_row({static_cast<long long>(i), t,
                       static_cast<long long>(r.status), r.achieved_rs,
                       r.arcs_added});
      }
    }
    out->data = std::move(data);
  }
};

}  // namespace

const Operation& globalreduce_operation() {
  static const GlobalReduceOperation op;
  return op;
}

}  // namespace rs::service::ops
