// The `globalrs` operation: global register saturation of an acyclic CFG
// (the paper's section 6) — per-block RS on the expanded DAGs plus the
// global per-type maxima — the first PayloadKind::Program workload of the
// service spine.
#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <utility>

#include "cfg/canon.hpp"
#include "cfg/global_rs.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

std::vector<int> canonical_block_order(const cfg::Cfg& cfg) {
  std::vector<std::pair<std::array<std::uint64_t, 2>, int>> keyed;
  keyed.reserve(cfg.block_count());
  const std::vector<ddg::Fingerprint> fps = cfg::block_fingerprints(cfg);
  for (int b = 0; b < cfg.block_count(); ++b) {
    keyed.push_back({{fps[b].hi, fps[b].lo}, b});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<int> order;
  order.reserve(keyed.size());
  for (const auto& [key, b] : keyed) {
    static_cast<void>(key);
    order.push_back(b);
  }
  return order;
}

namespace {

OpSpec table() {
  const core::AnalyzeOptions def;
  return {
      .name = "globalrs",
      .digest_tag = 5,
      .payload = PayloadKind::Program,
      .options = {{.name = "engine",
                   .kind = OptionKind::Engine,
                   .def = static_cast<long long>(def.engine),
                   .digest_slot = 0}},
      // The same greedy refinement word analyze mixes in (analyze.cpp).
      .digest_words = {{1, def.greedy.refine_passes}},
      // Rows grouped by canonical block ascending, type ascending within
      // a block.
      .result = {.count_key = "ng",
                 .entry_prefix = "g",
                 .row_key = RowKey::BlockType,
                 .columns = {{"vals"}, {"rs"}, {"proven", CellKind::Flag}}},
  };
}

class GlobalRsOperation final : public Operation {
 public:
  GlobalRsOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg&, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    RS_REQUIRE(req.program != nullptr,
               "globalrs request carries no program payload");
    const cfg::Cfg& prog = *req.program;
    core::AnalyzeOptions opts;
    opts.engine = engine_of(req);
    const cfg::GlobalReport report =
        cfg::analyze(prog, opts, solve, exec_from(env));
    out->stats = report.stats;
    out->blocks_parallel = report.blocks_parallel;
    auto data = std::make_shared<OpData>(spec().result);
    const std::vector<int> order = canonical_block_order(prog);
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (const core::TypeSaturation& t : report.blocks[order[i]].per_type) {
        data->add_row({static_cast<long long>(i), t.type, t.value_count,
                       t.rs, t.proven});
      }
    }
    out->data = std::move(data);
  }

  /// The global per-type maxima and the all-proven verdict, derived from
  /// the rows, so decoded payloads render identically by construction.
  void render_derived(const OpData& d, std::ostream& os) const override {
    std::map<long long, long long> global;
    bool all_proven = true;
    for (std::size_t r = 0; r < d.rows(); ++r) {
      const long long rs = d.cell(r, "rs");
      auto [it, fresh] = global.emplace(d.type(r), rs);
      if (!fresh) it->second = std::max(it->second, rs);
      all_proven = all_proven && d.cell(r, "proven") != 0;
    }
    for (const auto& [t, rs] : global) os << " t" << t << ".rs=" << rs;
    os << " all_proven=" << (all_proven ? 1 : 0);
  }
};

}  // namespace

const Operation& globalrs_operation() {
  static const GlobalRsOperation op;
  return op;
}

}  // namespace rs::service::ops
