// The `reduce` operation: the paper's figure-1 RS reduction pipeline
// (core::ensure_limits) against per-type register limits.
#include <utility>

#include "core/saturation.hpp"
#include "ddg/io.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  const core::PipelineOptions def;
  return {
      .name = "reduce",
      // Grandfathered from RequestKind::Reduce == 1 (see analyze.cpp).
      .digest_tag = 1,
      .example_options = "limits=6,6",
      .options =
          {{.name = "limits",
            .kind = OptionKind::Limits,
            .required = true,
            .digest_slot = 10},
           {.name = "engine",
            .kind = OptionKind::Engine,
            .def = static_cast<long long>(def.analyze.engine),
            .digest_slot = 0},
           {.name = "exact",
            .kind = OptionKind::Flag,
            .def = def.exact_reduction,
            .digest_slot = 8},
           {.name = "verify",
            .kind = OptionKind::Flag,
            .def = def.verify,
            .digest_slot = 9},
           // The output DDG is always computed and cached; emit= only
           // asks the renderer for it, so it is not digested.
           {.name = "emit", .kind = OptionKind::Emit}},
      // The pre-registry Reduce digest mixed in these core defaults; they
      // are read from PipelineOptions{} so that changing one re-keys the
      // cache, and every existing entry keeps its key until then.
      .digest_words = {{1, def.analyze.greedy.refine_passes},
                       {2, def.reduce.src.node_limit},
                       {3, def.reduce.src.slack_limit},
                       {4, def.reduce.greedy.refine_passes},
                       // Retired arc-latency mode slot: keeps persisted
                       // disk keys.
                       {5, 0},
                       {6, def.reduce.rs_upper},
                       {7, def.reduce.max_rounds}},
      .result = {.count_key = "nr",
                 .entry_prefix = "r",
                 .columns = {{"status", CellKind::Status},
                             {"rs"},
                             {"arcs"},
                             {"loss"}},
                 // na=0 kept for byte-identity with pre-registry records
                 // (analyze.cpp).
                 .zero_count_before = "na",
                 .renders_success = true},
  };
}

class ReduceOperation final : public Operation {
 public:
  ReduceOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv&,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    // One DAG, types reduced in order; no fan-out.
    const core::PipelineResult result = core::ensure_limits(
        normalized, limits_of(req, normalized.type_count()),
        pipeline_options(req), solve);
    out->stats = result.stats;
    out->success = result.success;
    if (!result.success) out->error = result.note;
    auto data = std::make_shared<OpData>(spec().result);
    for (ddg::RegType t = 0; t < normalized.type_count(); ++t) {
      const core::ReduceResult& r = result.per_type[t];
      data->add_row({t, static_cast<long long>(r.status), r.achieved_rs,
                     r.arcs_added, r.ilp_loss()});
    }
    out->data = std::move(data);
    out->out_ddg = ddg::to_text(result.out);
  }
};

}  // namespace

const Operation& reduce_operation() {
  static const ReduceOperation op;
  return op;
}

}  // namespace rs::service::ops
