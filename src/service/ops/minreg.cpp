#include "service/ops/minreg.hpp"

#include <ostream>
#include <utility>

#include "ddg/io.hpp"
#include "graph/paths.hpp"
#include "service/codec.hpp"
#include "service/ops/common.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace {

const MinRegOpOptions& opts_of(const Request& req) {
  return ops::typed_options<MinRegOpOptions>(req, "minreg");
}

class MinRegOperation final : public Operation {
 public:
  std::string_view name() const override { return "minreg"; }
  std::uint64_t digest_tag() const override { return 2; }
  std::string_view synopsis() const override {
    return "[cp=<n>] [engine=exact] [emit=0|1]";
  }
  std::string_view example_options() const override { return ""; }

  bool accepts_option(std::string_view key) const override {
    return key == "cp" || key == "engine" || key == "emit";
  }

  void parse_options(const std::map<std::string, std::string>& fields,
                     Request* req) const override {
    auto opts = std::make_shared<MinRegOpOptions>();
    if (const auto it = fields.find("cp"); it != fields.end()) {
      opts->cp_budget =
          static_cast<sched::Time>(support::parse_ll(it->second, "cp"));
      // cp=0 is the documented spelling of the default (critical-path
      // budget); it digests identically to an unset cp=, as it must —
      // they name the same solve.
      RS_REQUIRE(opts->cp_budget >= 0, "cp= must be >= 0");
    }
    if (const auto it = fields.find("engine"); it != fields.end()) {
      // Minimization has no greedy/ilp engine; reject rather than silently
      // run something other than what was asked for. "portfolio" is an
      // accepted alias of "exact" (see ops::engine_from_token).
      RS_REQUIRE(it->second == "exact" || it->second == "portfolio",
                 "minreg engine= must be exact or portfolio, got '" +
                     it->second + "'");
    }
    req->want_ddg = ops::flag_from(fields, "emit", false);
    req->options = std::move(opts);
  }

  void digest_options(const Request& req, OptionDigest* d) const override {
    d->add(static_cast<std::uint64_t>(opts_of(req).cp_budget));
  }

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv& env,
           const support::SolveContext& solve,
           ResultPayload* out) const override {
    static_cast<void>(env);  // types minimized in order on one DAG
    const MinRegOpOptions& o = opts_of(req);
    if (o.cp_budget > 0) {
      const auto cp = graph::critical_path(normalized.graph());
      RS_REQUIRE(o.cp_budget >= cp,
                 "cp=" + std::to_string(o.cp_budget) +
                     " is below the critical path (" + std::to_string(cp) +
                     "); no schedule fits");
    }
    auto data = std::make_shared<MinRegData>();
    ddg::Ddg cur = normalized;
    bool all_proven = true;
    for (ddg::RegType t = 0; t < cur.type_count(); ++t) {
      const core::TypeContext ctx(cur, t);
      core::MinRegResult r = core::minimize_register_need(
          ctx, o.cp_budget, core::SrcOptions{}, core::ArcLatencyMode::General,
          solve);
      out->stats.merge(r.stats);
      data->per_type.push_back(
          TypeMinReg{t, r.min_need, r.proven, r.arcs_added});
      all_proven = all_proven && r.proven;
      // Later types minimize on the extended DAG, so the final DAG freezes
      // every type's minimal-need schedule simultaneously.
      if (r.extended.has_value()) cur = std::move(*r.extended);
    }
    data->critical_path =
        static_cast<long long>(graph::critical_path(cur.graph()));
    out->success = all_proven;
    out->out_ddg = ddg::to_text(cur);
    out->data = std::move(data);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const MinRegData& d = minreg_data(p);
    encode_entries(os, "nm", "m", d.per_type.size(),
                   [&d](std::size_t i, std::ostream& out) {
                     const TypeMinReg& t = d.per_type[i];
                     out << t.type << ':' << t.min_need << ':'
                         << (t.proven ? 1 : 0) << ':' << t.arcs_added;
                   });
    os << " mcp=" << d.critical_path;
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    auto data = std::make_shared<MinRegData>();
    decode_entries(fields, "nm", "m", 4,
                   [&data](const std::vector<std::string>& parts) {
      TypeMinReg t;
      t.type = static_cast<ddg::RegType>(support::parse_int(parts[0], "m.type"));
      t.min_need = support::parse_int(parts[1], "m.need");
      const int proven = support::parse_int(parts[2], "m.proven");
      RS_REQUIRE(proven == 0 || proven == 1, "m.proven must be 0 or 1");
      t.proven = proven == 1;
      t.arcs_added = support::parse_int(parts[3], "m.arcs");
      data->per_type.push_back(t);
    });
    data->critical_path = require_ll(fields, "mcp");
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    os << " success=" << (p.success ? 1 : 0);
    // Data-free (cancelled-waiter) payloads carry no operation fields: a
    // fabricated cp=0 would read as a computed result.
    if (p.data == nullptr) return;
    const MinRegData& d = minreg_data(p);
    for (const TypeMinReg& t : d.per_type) {
      os << " t" << t.type << ".need=" << t.min_need << " t" << t.type
         << ".proven=" << (t.proven ? 1 : 0) << " t" << t.type
         << ".arcs=" << t.arcs_added;
    }
    os << " cp=" << d.critical_path;
  }
};

}  // namespace

const Operation& minreg_operation() {
  static const MinRegOperation op;
  return op;
}

const MinRegData& minreg_data(const ResultPayload& p) {
  return ops::typed_data<MinRegData>(p, "minreg");
}

Request make_minreg_request(ddg::Ddg ddg, sched::Time cp_budget) {
  Request req;
  req.op = &minreg_operation();
  req.ddg = std::move(ddg);
  auto box = std::make_shared<MinRegOpOptions>();
  box->cp_budget = cp_budget;
  req.options = std::move(box);
  return req;
}

}  // namespace rs::service
