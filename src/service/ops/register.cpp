// The built-in operation roster. Adding a workload to the service means
// writing its src/service/ops/<name>.cpp — a table and a run() — and
// listing it here: the protocol parser, engine, codec, store and socket
// server pick it up through the registry without edits.
#include "service/operation.hpp"
#include "service/ops/common.hpp"

namespace rs::service {

std::vector<const Operation*> builtin_operations() {
  return {
      &ops::analyze_operation(),  &ops::reduce_operation(),
      &ops::minreg_operation(),   &ops::spill_operation(),
      &ops::schedule_operation(), &ops::globalrs_operation(),
      &ops::globalreduce_operation(),
  };
}

}  // namespace rs::service
