#include "service/ops/globalrs.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <utility>

#include "cfg/canon.hpp"
#include "ddg/canon.hpp"
#include "service/codec.hpp"
#include "service/ops/common.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace ops {

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

}  // namespace ops

namespace {

const GlobalRsOpOptions& opts_of(const Request& req) {
  return ops::typed_options<GlobalRsOpOptions>(req, "globalrs");
}

class GlobalRsOperation final : public Operation {
 public:
  std::string_view name() const override { return "globalrs"; }
  std::uint64_t digest_tag() const override { return 5; }
  PayloadKind payload_kind() const override { return PayloadKind::Program; }
  std::string_view synopsis() const override {
    return "[engine=greedy|exact|ilp]";
  }
  std::string_view example_options() const override { return ""; }

  bool accepts_option(std::string_view key) const override {
    return key == "engine";
  }

  void parse_options(const std::map<std::string, std::string>& fields,
                     Request* req) const override {
    auto opts = std::make_shared<GlobalRsOpOptions>();
    if (const auto it = fields.find("engine"); it != fields.end()) {
      opts->core.engine = ops::engine_from_token(it->second);
    }
    req->options = std::move(opts);
  }

  void digest_options(const Request& req, OptionDigest* d) const override {
    const core::AnalyzeOptions& o = opts_of(req).core;
    d->add(static_cast<std::uint64_t>(o.engine));
    d->add(static_cast<std::uint64_t>(o.greedy.refine_passes));
  }

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    static_cast<void>(normalized);
    RS_REQUIRE(req.program != nullptr,
               "globalrs request carries no program payload");
    const cfg::Cfg& prog = *req.program;
    const cfg::GlobalReport report =
        cfg::analyze(prog, opts_of(req).core, solve, ops::exec_from(env));
    out->stats = report.stats;
    out->blocks_parallel = report.blocks_parallel;
    auto data = std::make_shared<GlobalRsData>();
    const std::vector<int> order = ops::canonical_block_order(prog);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const cfg::BlockSaturation& bs = report.blocks[order[i]];
      for (const core::TypeSaturation& t : bs.per_type) {
        data->rows.push_back(GlobalRsRow{static_cast<int>(i), t.type,
                                         t.value_count, t.rs, t.proven});
      }
    }
    out->data = std::move(data);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const GlobalRsData& d = globalrs_data(p);
    encode_entries(os, "ng", "g", d.rows.size(),
                   [&d](std::size_t i, std::ostream& out) {
                     const GlobalRsRow& r = d.rows[i];
                     out << r.block << ':' << r.type << ':' << r.value_count
                         << ':' << r.rs << ':' << (r.proven ? 1 : 0);
                   });
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    auto data = std::make_shared<GlobalRsData>();
    decode_entries(fields, "ng", "g", 5,
                   [&data](const std::vector<std::string>& parts) {
      GlobalRsRow r;
      r.block = support::parse_int(parts[0], "g.block");
      r.type = static_cast<ddg::RegType>(support::parse_int(parts[1], "g.type"));
      r.value_count = support::parse_int(parts[2], "g.vals");
      r.rs = support::parse_int(parts[3], "g.rs");
      const int proven = support::parse_int(parts[4], "g.proven");
      RS_REQUIRE(proven == 0 || proven == 1, "g.proven must be 0 or 1");
      r.proven = proven == 1;
      data->rows.push_back(r);
    });
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    // Data-free (cancelled-waiter) payloads carry no operation fields: a
    // fabricated blocks=0 / all_proven=1 would read as a computed result.
    if (p.data == nullptr) return;
    const GlobalRsData& d = globalrs_data(p);
    int blocks = 0;
    for (const GlobalRsRow& r : d.rows) blocks = std::max(blocks, r.block + 1);
    os << " blocks=" << blocks;
    // Per-block rows first, then the global per-type maxima and the
    // all-proven verdict — all derived from the rows, so decoded payloads
    // render identically by construction.
    std::map<ddg::RegType, int> global;
    bool all_proven = true;
    for (const GlobalRsRow& r : d.rows) {
      os << " b" << r.block << ".t" << r.type << ".vals=" << r.value_count
         << " b" << r.block << ".t" << r.type << ".rs=" << r.rs << " b"
         << r.block << ".t" << r.type << ".proven=" << (r.proven ? 1 : 0);
      auto [it, fresh] = global.emplace(r.type, r.rs);
      if (!fresh) it->second = std::max(it->second, r.rs);
      all_proven = all_proven && r.proven;
    }
    for (const auto& [t, rs] : global) {
      os << " t" << t << ".rs=" << rs;
    }
    os << " all_proven=" << (all_proven ? 1 : 0);
  }
};

}  // namespace

const Operation& globalrs_operation() {
  static const GlobalRsOperation op;
  return op;
}

const GlobalRsData& globalrs_data(const ResultPayload& p) {
  return ops::typed_data<GlobalRsData>(p, "globalrs");
}

Request make_globalrs_request(std::shared_ptr<const cfg::Cfg> program,
                              core::AnalyzeOptions opts) {
  Request req;
  req.op = &globalrs_operation();
  req.program = std::move(program);
  auto box = std::make_shared<GlobalRsOpOptions>();
  box->core = opts;
  req.options = std::move(box);
  return req;
}

}  // namespace rs::service
