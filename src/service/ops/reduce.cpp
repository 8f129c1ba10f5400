#include "service/ops/reduce.hpp"

#include <ostream>

#include "ddg/io.hpp"
#include "service/codec.hpp"
#include "service/ops/common.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace rs::service {

const char* reduce_status_token(core::ReduceStatus s) {
  switch (s) {
    case core::ReduceStatus::AlreadyFits: return "fits";
    case core::ReduceStatus::Reduced: return "reduced";
    case core::ReduceStatus::SpillNeeded: return "spill";
    case core::ReduceStatus::LimitHit: return "limit";
  }
  return "?";
}

core::ReduceStatus reduce_status_from_token(const std::string& tok) {
  using core::ReduceStatus;
  if (tok == "fits") return ReduceStatus::AlreadyFits;
  if (tok == "reduced") return ReduceStatus::Reduced;
  if (tok == "spill") return ReduceStatus::SpillNeeded;
  if (tok == "limit") return ReduceStatus::LimitHit;
  RS_REQUIRE(false, "unknown reduce status '" + tok + "'");
  return ReduceStatus::LimitHit;
}

namespace {

const ReduceOpOptions& opts_of(const Request& req) {
  return ops::typed_options<ReduceOpOptions>(req, "reduce");
}

class ReduceOperation final : public Operation {
 public:
  std::string_view name() const override { return "reduce"; }
  // Grandfathered from RequestKind::Reduce == 1 (see analyze.cpp).
  std::uint64_t digest_tag() const override { return 1; }
  std::string_view synopsis() const override {
    return "limits=<n>[,<n>...] [engine=greedy|exact|ilp] "
           "[exact=0|1] [verify=0|1] [emit=0|1]";
  }
  std::string_view example_options() const override { return "limits=6,6"; }

  bool accepts_option(std::string_view key) const override {
    return key == "limits" || key == "engine" || key == "exact" ||
           key == "verify" || key == "emit";
  }

  void parse_options(const std::map<std::string, std::string>& fields,
                     Request* req) const override {
    auto opts = std::make_shared<ReduceOpOptions>();
    const auto it = fields.find("limits");
    RS_REQUIRE(it != fields.end(), "reduce requires limits=<n>[,<n>...]");
    opts->limits = support::parse_int_list(it->second, ',', "limits");
    RS_REQUIRE(!opts->limits.empty(), "limits= must name at least one limit");
    if (const auto e = fields.find("engine"); e != fields.end()) {
      opts->pipeline.analyze.engine = ops::engine_from_token(e->second);
    }
    opts->pipeline.exact_reduction = ops::flag_from(fields, "exact", false);
    opts->pipeline.verify = ops::flag_from(fields, "verify", true);
    req->want_ddg = ops::flag_from(fields, "emit", false);
    req->options = std::move(opts);
  }

  void digest_options(const Request& req, OptionDigest* d) const override {
    // The digest sequence reproduces the pre-registry Reduce digest
    // exactly, so every existing cache entry keeps its key.
    const ReduceOpOptions& o = opts_of(req);
    d->add(static_cast<std::uint64_t>(o.pipeline.analyze.engine));
    d->add(static_cast<std::uint64_t>(o.pipeline.analyze.greedy.refine_passes));
    d->add(static_cast<std::uint64_t>(o.pipeline.reduce.src.node_limit));
    d->add(static_cast<std::uint64_t>(o.pipeline.reduce.src.slack_limit));
    d->add(static_cast<std::uint64_t>(o.pipeline.reduce.greedy.refine_passes));
    d->add(0);  // retired arc-latency mode slot: keeps persisted disk keys
    d->add(static_cast<std::uint64_t>(o.pipeline.reduce.rs_upper));
    d->add(static_cast<std::uint64_t>(o.pipeline.reduce.max_rounds));
    d->add(o.pipeline.exact_reduction ? 1 : 0);
    d->add(o.pipeline.verify ? 1 : 0);
    d->add(o.limits.size());
    for (const int l : o.limits) d->add(static_cast<std::uint64_t>(l) + 1);
  }

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    static_cast<void>(env);  // one DAG, types reduced in order; no fan-out
    const ReduceOpOptions& o = opts_of(req);
    RS_REQUIRE(static_cast<int>(o.limits.size()) == normalized.type_count(),
               "need " + std::to_string(normalized.type_count()) +
                   " register limits, got " +
                   std::to_string(o.limits.size()));
    const core::PipelineResult result =
        core::ensure_limits(normalized, o.limits, o.pipeline, solve);
    out->stats = result.stats;
    out->success = result.success;
    if (!result.success) out->error = result.note;
    auto data = std::make_shared<ReduceData>();
    for (ddg::RegType t = 0; t < normalized.type_count(); ++t) {
      const core::ReduceResult& r = result.per_type[t];
      data->per_type.push_back(TypeReduce{
          t, r.status, r.achieved_rs, r.arcs_added,
          static_cast<long long>(r.ilp_loss())});
    }
    out->data = std::move(data);
    out->out_ddg = ddg::to_text(result.out);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const ReduceData& d = reduce_data(p);
    // na=0 kept for byte-identity with pre-registry records (analyze.cpp).
    os << " na=0";
    encode_entries(os, "nr", "r", d.per_type.size(),
                   [&d](std::size_t i, std::ostream& out) {
                     const TypeReduce& t = d.per_type[i];
                     out << t.type << ':' << reduce_status_token(t.status)
                         << ':' << t.achieved_rs << ':' << t.arcs_added << ':'
                         << t.ilp_loss;
                   });
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    if (require_ll(fields, "na") != 0) return false;
    auto data = std::make_shared<ReduceData>();
    decode_entries(fields, "nr", "r", 5,
                   [&data](const std::vector<std::string>& parts) {
      TypeReduce t;
      t.type = static_cast<ddg::RegType>(support::parse_int(parts[0], "r.type"));
      t.status = reduce_status_from_token(parts[1]);
      t.achieved_rs = support::parse_int(parts[2], "r.rs");
      t.arcs_added = support::parse_int(parts[3], "r.arcs");
      t.ilp_loss = support::parse_ll(parts[4], "r.loss");
      data->per_type.push_back(t);
    });
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    os << " success=" << (p.success ? 1 : 0);
    for (const TypeReduce& t : reduce_data(p).per_type) {
      os << " t" << t.type << ".status=" << reduce_status_token(t.status)
         << " t" << t.type << ".rs=" << t.achieved_rs << " t" << t.type
         << ".arcs=" << t.arcs_added << " t" << t.type
         << ".loss=" << t.ilp_loss;
    }
  }
};

}  // namespace

const Operation& reduce_operation() {
  static const ReduceOperation op;
  return op;
}

const ReduceData& reduce_data(const ResultPayload& p) {
  return ops::typed_data<ReduceData>(p, "reduce");
}

Request make_reduce_request(ddg::Ddg ddg, std::vector<int> limits,
                            core::PipelineOptions opts) {
  Request req;
  req.op = &reduce_operation();
  req.ddg = std::move(ddg);
  auto box = std::make_shared<ReduceOpOptions>();
  box->pipeline = opts;
  box->limits = std::move(limits);
  req.options = std::move(box);
  return req;
}

}  // namespace rs::service
