// The `analyze` operation: per-type register saturation (the paper's RS
// computation), the original workload of the service spine.
#include <utility>

#include "core/saturation.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  const core::AnalyzeOptions def;
  return {
      .name = "analyze",
      // Grandfathered from RequestKind::Analyze == 0: keeps every
      // pre-registry cache key (memory and disk) addressable.
      .digest_tag = 0,
      .options = {{.name = "engine",
                   .kind = OptionKind::Engine,
                   .def = static_cast<long long>(def.engine),
                   .digest_slot = 0}},
      // The greedy refinement count the pre-table digest mixed in, read
      // from the core default so that changing it re-keys the cache.
      .digest_words = {{1, def.greedy.refine_passes}},
      .result = {.count_key = "na",
                 .entry_prefix = "a",
                 .columns = {{"vals"}, {"rs"}, {"proven", CellKind::Flag}},
                 // Pre-registry records carried both entry counts for
                 // every kind; the empty one keeps them byte-identical.
                 .zero_count_after = "nr"},
  };
}

class AnalyzeOperation final : public Operation {
 public:
  AnalyzeOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv&,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    // One DAG, types solved in order; no fan-out.
    core::AnalyzeOptions opts;
    opts.engine = engine_of(req);
    const core::SaturationReport report =
        core::analyze(normalized, opts, solve);
    out->stats = report.stats;
    auto data = std::make_shared<OpData>(spec().result);
    for (const core::TypeSaturation& t : report.per_type) {
      data->add_row({t.type, t.value_count, t.rs, t.proven});
    }
    out->data = std::move(data);
  }
};

}  // namespace

const Operation& analyze_operation() {
  static const AnalyzeOperation op;
  return op;
}

}  // namespace rs::service::ops
