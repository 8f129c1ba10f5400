// The `minreg` operation: the literature's register *minimization*
// baseline the paper argues against (section 6, figure 2(b)) —
// core::minimize_register_need per register type, freezing each minimal-
// need schedule into the DAG via the Theorem-4.2 arc construction. Types
// are minimized in order on the evolving DAG, so later types respect the
// arcs earlier types added (the same composition ensure_limits uses).
#pragma once

#include <vector>

#include "core/min_reg.hpp"
#include "service/engine.hpp"

namespace rs::service {

struct TypeMinReg {
  ddg::RegType type = 0;
  int min_need = 0;     // minimal register need under the makespan budget
  bool proven = false;  // search not truncated
  int arcs_added = 0;   // Theorem-4.2 arcs freezing the witness schedule
};

struct MinRegData : OpData {
  std::vector<TypeMinReg> per_type;
  /// Critical path of the final extended DAG.
  long long critical_path = 0;

  std::size_t bytes() const override {
    return sizeof(MinRegData) + per_type.capacity() * sizeof(TypeMinReg);
  }
};

struct MinRegOpOptions : OpOptions {
  /// Makespan budget in cycles; <= 0 means the current DAG's critical path
  /// (the paper's footnote-4 "under critical path constraints").
  sched::Time cp_budget = 0;
};

const Operation& minreg_operation();

/// Typed view of a minreg payload's data; throws unless the payload was
/// produced by the minreg operation (data-free payloads decode as empty).
const MinRegData& minreg_data(const ResultPayload& p);

/// Direct-construction convenience for engine callers (tests, benches).
Request make_minreg_request(ddg::Ddg ddg, sched::Time cp_budget = 0);

}  // namespace rs::service
