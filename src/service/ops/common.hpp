// Shared helpers for service operations (service/ops/*.cpp): option
// parsing and the typed accessors for the per-op options/data boxes.
#pragma once

#include <map>
#include <string>

#include "core/exec.hpp"
#include "core/saturation.hpp"
#include "service/engine.hpp"
#include "support/assert.hpp"

namespace rs::service::ops {

/// The operation's typed view of Request::options; the operation's
/// defaults when the box is null (direct engine callers may skip
/// parse_options), a precondition failure when it holds another
/// operation's type.
template <class T>
const T& typed_options(const Request& req, const char* op_name) {
  static const T kDefaults;
  if (req.options == nullptr) return kDefaults;
  const auto* typed = dynamic_cast<const T*>(req.options.get());
  RS_REQUIRE(typed != nullptr,
             std::string(op_name) + " request carries foreign options");
  return *typed;
}

/// The operation's typed view of ResultPayload::data. Data-free payloads
/// (a waiter cancelled before anything was computed) read as an empty
/// instance; encoders/renderers must emit no fabricated scalars for those
/// (check p.data != nullptr where a zero would look like a result).
template <class T>
const T& typed_data(const ResultPayload& p, const char* op_name) {
  if (p.data == nullptr) {
    static const T kEmpty;
    return kEmpty;
  }
  const auto* typed = dynamic_cast<const T*>(p.data.get());
  RS_REQUIRE(typed != nullptr,
             std::string("payload does not carry ") + op_name + " data");
  return *typed;
}

/// Optional 0|1 flag with a fallback default; throws on any other value.
inline bool flag_from(const std::map<std::string, std::string>& fields,
                      const std::string& key, bool fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  RS_REQUIRE(it->second == "0" || it->second == "1",
             key + "= must be 0 or 1, got '" + it->second + "'");
  return it->second == "1";
}

/// engine= token to RS engine; throws on an unknown token. "portfolio" is
/// an accepted alias of "exact", kept so existing clients keep working:
/// such a request shares exact's result and cache key.
inline core::RsEngine engine_from_token(const std::string& e) {
  if (e == "greedy") return core::RsEngine::Greedy;
  if (e == "exact" || e == "portfolio") {
    return core::RsEngine::ExactCombinatorial;
  }
  if (e == "ilp") return core::RsEngine::ExactIlp;
  RS_REQUIRE(false, "unknown engine '" + e + "' (greedy|exact|ilp|portfolio)");
  return core::RsEngine::Greedy;
}

/// RunEnv to the core execution descriptor (pool + jobs cap).
inline core::Exec exec_from(const RunEnv& env) {
  return core::Exec{env.pool, env.jobs};
}

}  // namespace rs::service::ops
