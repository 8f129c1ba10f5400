#include "service/ops/analyze.hpp"

#include <ostream>

#include "service/codec.hpp"
#include "service/ops/common.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace {

const AnalyzeOpOptions& opts_of(const Request& req) {
  return ops::typed_options<AnalyzeOpOptions>(req, "analyze");
}

class AnalyzeOperation final : public Operation {
 public:
  std::string_view name() const override { return "analyze"; }
  // Grandfathered from RequestKind::Analyze == 0: keeps every pre-registry
  // cache key (memory and disk) addressable.
  std::uint64_t digest_tag() const override { return 0; }
  std::string_view synopsis() const override {
    return "[engine=greedy|exact|ilp]";
  }
  std::string_view example_options() const override { return ""; }

  bool accepts_option(std::string_view key) const override {
    return key == "engine";
  }

  void parse_options(const std::map<std::string, std::string>& fields,
                     Request* req) const override {
    auto opts = std::make_shared<AnalyzeOpOptions>();
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
    static_cast<void>(env);  // one DAG, types solved in order; no fan-out
    const core::SaturationReport report =
        core::analyze(normalized, opts_of(req).core, solve);
    out->stats = report.stats;
    auto data = std::make_shared<AnalyzeData>();
    for (const core::TypeSaturation& t : report.per_type) {
      data->per_type.push_back(
          TypeAnalysis{t.type, t.value_count, t.rs, t.proven});
    }
    out->data = std::move(data);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const AnalyzeData& d = analyze_data(p);
    encode_entries(os, "na", "a", d.per_type.size(),
                   [&d](std::size_t i, std::ostream& out) {
                     const TypeAnalysis& t = d.per_type[i];
                     out << t.type << ':' << t.value_count << ':' << t.rs
                         << ':' << (t.proven ? 1 : 0);
                   });
    // Pre-registry records carried both entry counts for every kind;
    // keeping the empty one preserves byte-identical encodings across the
    // format transition (old and new writers produce the same file).
    os << " nr=0";
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    if (require_ll(fields, "nr") != 0) return false;
    auto data = std::make_shared<AnalyzeData>();
    decode_entries(fields, "na", "a", 4,
                   [&data](const std::vector<std::string>& parts) {
      TypeAnalysis t;
      t.type = static_cast<ddg::RegType>(support::parse_int(parts[0], "a.type"));
      t.value_count = support::parse_int(parts[1], "a.vals");
      t.rs = support::parse_int(parts[2], "a.rs");
      const int proven = support::parse_int(parts[3], "a.proven");
      RS_REQUIRE(proven == 0 || proven == 1, "a.proven must be 0 or 1");
      t.proven = proven == 1;
      data->per_type.push_back(t);
    });
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    for (const TypeAnalysis& t : analyze_data(p).per_type) {
      os << " t" << t.type << ".vals=" << t.value_count << " t" << t.type
         << ".rs=" << t.rs << " t" << t.type
         << ".proven=" << (t.proven ? 1 : 0);
    }
  }
};

}  // namespace

const Operation& analyze_operation() {
  static const AnalyzeOperation op;
  return op;
}

const AnalyzeData& analyze_data(const ResultPayload& p) {
  return ops::typed_data<AnalyzeData>(p, "analyze");
}

Request make_analyze_request(ddg::Ddg ddg, core::AnalyzeOptions opts) {
  Request req;
  req.op = &analyze_operation();
  req.ddg = std::move(ddg);
  auto box = std::make_shared<AnalyzeOpOptions>();
  box->core = opts;
  req.options = std::move(box);
  return req;
}

}  // namespace rs::service
