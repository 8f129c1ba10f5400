#include "service/ops/globalreduce.hpp"

#include <algorithm>
#include <ostream>

#include "service/codec.hpp"
#include "service/ops/common.hpp"
#include "service/ops/globalrs.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace {

const GlobalReduceOpOptions& opts_of(const Request& req) {
  return ops::typed_options<GlobalReduceOpOptions>(req, "globalreduce");
}

class GlobalReduceOperation final : public Operation {
 public:
  std::string_view name() const override { return "globalreduce"; }
  std::uint64_t digest_tag() const override { return 6; }
  PayloadKind payload_kind() const override { return PayloadKind::Program; }
  std::string_view synopsis() const override {
    return "limits=<n>[,<n>...] [margin=<n>] "
           "[engine=greedy|exact|ilp] [exact=0|1] [verify=0|1]";
  }
  std::string_view example_options() const override { return "limits=6,6"; }

  bool accepts_option(std::string_view key) const override {
    return key == "limits" || key == "margin" || key == "engine" ||
           key == "exact" || key == "verify";
  }

  void parse_options(const std::map<std::string, std::string>& fields,
                     Request* req) const override {
    auto opts = std::make_shared<GlobalReduceOpOptions>();
    const auto it = fields.find("limits");
    RS_REQUIRE(it != fields.end(),
               "globalreduce requires limits=<n>[,<n>...]");
    opts->limits = support::parse_int_list(it->second, ',', "limits");
    RS_REQUIRE(!opts->limits.empty(), "limits= must name at least one limit");
    if (const auto m = fields.find("margin"); m != fields.end()) {
      opts->margin = support::parse_int(m->second, "margin");
      RS_REQUIRE(opts->margin >= 0, "margin= must be >= 0");
    }
    if (const auto e = fields.find("engine"); e != fields.end()) {
      opts->pipeline.analyze.engine = ops::engine_from_token(e->second);
    }
    opts->pipeline.exact_reduction = ops::flag_from(fields, "exact", false);
    opts->pipeline.verify = ops::flag_from(fields, "verify", true);
    req->options = std::move(opts);
  }

  void digest_options(const Request& req, OptionDigest* d) const override {
    const GlobalReduceOpOptions& o = opts_of(req);
    d->add(static_cast<std::uint64_t>(o.margin));
    d->add(o.pipeline.exact_reduction ? 1 : 0);
    d->add(o.pipeline.verify ? 1 : 0);
    d->add(o.limits.size());
    for (const int l : o.limits) d->add(static_cast<std::uint64_t>(l) + 1);
    // Appended conditionally so the default engine digests exactly as
    // before engine= existed — every older cache entry keeps its key.
    if (o.pipeline.analyze.engine != core::RsEngine::ExactCombinatorial) {
      d->add(static_cast<std::uint64_t>(o.pipeline.analyze.engine) + 1);
    }
  }

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    static_cast<void>(normalized);
    RS_REQUIRE(req.program != nullptr,
               "globalreduce request carries no program payload");
    const GlobalReduceOpOptions& o = opts_of(req);
    const cfg::Cfg& prog = *req.program;
    RS_REQUIRE(static_cast<int>(o.limits.size()) == prog.type_count(),
               "need " + std::to_string(prog.type_count()) +
                   " register limits, got " + std::to_string(o.limits.size()));
    const cfg::GlobalReduceResult result = cfg::ensure_limits(
        prog, o.limits, o.margin, o.pipeline, solve, ops::exec_from(env));
    out->blocks_parallel = result.blocks_parallel;
    out->success = result.success;
    if (!result.success) out->error = result.note;
    auto data = std::make_shared<GlobalReduceData>();
    const std::vector<int> order = ops::canonical_block_order(prog);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const core::PipelineResult& block = result.details[order[i]];
      out->stats.merge(block.stats);
      for (ddg::RegType t = 0; t < prog.type_count(); ++t) {
        const core::ReduceResult& r = block.per_type[t];
        data->rows.push_back(GlobalReduceRow{static_cast<int>(i), t, r.status,
                                             r.achieved_rs, r.arcs_added});
      }
    }
    out->data = std::move(data);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const GlobalReduceData& d = globalreduce_data(p);
    encode_entries(os, "ng", "g", d.rows.size(),
                   [&d](std::size_t i, std::ostream& out) {
                     const GlobalReduceRow& r = d.rows[i];
                     out << r.block << ':' << r.type << ':'
                         << reduce_status_token(r.status) << ':'
                         << r.achieved_rs << ':' << r.arcs_added;
                   });
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    auto data = std::make_shared<GlobalReduceData>();
    decode_entries(fields, "ng", "g", 5,
                   [&data](const std::vector<std::string>& parts) {
      GlobalReduceRow r;
      r.block = support::parse_int(parts[0], "g.block");
      r.type = static_cast<ddg::RegType>(support::parse_int(parts[1], "g.type"));
      r.status = reduce_status_from_token(parts[2]);
      r.achieved_rs = support::parse_int(parts[3], "g.rs");
      r.arcs_added = support::parse_int(parts[4], "g.arcs");
      data->rows.push_back(r);
    });
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    os << " success=" << (p.success ? 1 : 0);
    // Data-free (cancelled-waiter) payloads carry no operation fields (see
    // minreg.cpp): a fabricated blocks=0 would read as a computed result.
    if (p.data == nullptr) return;
    const GlobalReduceData& d = globalreduce_data(p);
    int blocks = 0;
    for (const GlobalReduceRow& r : d.rows) {
      blocks = std::max(blocks, r.block + 1);
    }
    os << " blocks=" << blocks;
    for (const GlobalReduceRow& r : d.rows) {
      os << " b" << r.block << ".t" << r.type
         << ".status=" << reduce_status_token(r.status) << " b" << r.block
         << ".t" << r.type << ".rs=" << r.achieved_rs << " b" << r.block
         << ".t" << r.type << ".arcs=" << r.arcs_added;
    }
  }
};

}  // namespace

const Operation& globalreduce_operation() {
  static const GlobalReduceOperation op;
  return op;
}

const GlobalReduceData& globalreduce_data(const ResultPayload& p) {
  return ops::typed_data<GlobalReduceData>(p, "globalreduce");
}

Request make_globalreduce_request(std::shared_ptr<const cfg::Cfg> program,
                                  std::vector<int> limits, int margin,
                                  core::PipelineOptions opts) {
  Request req;
  req.op = &globalreduce_operation();
  req.program = std::move(program);
  auto box = std::make_shared<GlobalReduceOpOptions>();
  box->limits = std::move(limits);
  box->margin = margin;
  box->pipeline = opts;
  req.options = std::move(box);
  return req;
}

}  // namespace rs::service
