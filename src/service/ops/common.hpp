// Shared declarations of the built-in operations (service/ops/*.cpp): each
// op file defines one Operation — its table and its run() — behind the
// accessor listed here for the roster in register.cpp.
#pragma once

#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "core/exec.hpp"
#include "core/saturation.hpp"
#include "service/engine.hpp"
#include "support/assert.hpp"

namespace rs::service::ops {

const Operation& analyze_operation();
const Operation& reduce_operation();
const Operation& minreg_operation();
const Operation& spill_operation();
const Operation& schedule_operation();
const Operation& globalrs_operation();
const Operation& globalreduce_operation();

/// The RS engine an engine= option selected.
inline core::RsEngine engine_of(const Request& req) {
  return static_cast<core::RsEngine>(option_value(req, "engine"));
}

/// The figure-1 pipeline options of reduce and globalreduce: engine=,
/// exact= and verify= over the core defaults.
inline core::PipelineOptions pipeline_options(const Request& req) {
  core::PipelineOptions o;
  o.analyze.engine = engine_of(req);
  o.exact_reduction = option_value(req, "exact") != 0;
  o.verify = option_value(req, "verify") != 0;
  return o;
}

/// The limits= list, which must name one limit per register type.
inline const std::vector<int>& limits_of(const Request& req, int types) {
  const std::vector<int>& limits = option_list(req, "limits");
  RS_REQUIRE(static_cast<int>(limits.size()) == types,
             "need " + std::to_string(types) + " register limits, got " +
                 std::to_string(limits.size()));
  return limits;
}

/// RunEnv to the core execution descriptor (pool + jobs cap).
inline core::Exec exec_from(const RunEnv& env) {
  return core::Exec{env.pool, env.jobs};
}

/// Block indices of `cfg` sorted by their expanded DAG's fingerprint (ties
/// keep program order — tied blocks are isomorphic, so their rows carry
/// identical metrics and the tie-break cannot leak input order into the
/// payload bytes). Shared by the program operations so their row order
/// agrees: block rows are numbered in this *canonical* order, so payloads
/// stay invariant under block reordering, the same way DDG payloads stay
/// invariant under node renumbering.
std::vector<int> canonical_block_order(const cfg::Cfg& cfg);

}  // namespace rs::service::ops
