// The `schedule` operation: the pipeline's downstream consumer — resource-
// constrained, register-blind list scheduling (sched::list_schedule) plus
// the lifetime metrics the paper reasons about: makespan and the per-type
// maximum register pressure (MAXLIVE) of the produced schedule. Useful for
// checking what pressure a register-blind scheduler actually reaches on a
// DAG before/after reduction, minimization or spilling.
#include <utility>

#include "sched/lifetime.hpp"
#include "sched/list_sched.hpp"
#include "sched/schedule.hpp"
#include "service/ops/common.hpp"

namespace rs::service::ops {

namespace {

OpSpec table() {
  return {
      .name = "schedule",
      .digest_tag = 4,
      // Issue width of the modeled machine (other per-class unit counts
      // keep the sched::Resources defaults).
      .options = {{.name = "width",
                   .kind = OptionKind::Count,
                   .def = sched::Resources{}.issue_width,
                   .min = 1,
                   .digest_slot = 0}},
      // maxlive: RN^t of the list schedule (MAXLIVE).
      .result = {.count_key = "nc",
                 .entry_prefix = "c",
                 .columns = {{"vals"}, {"maxlive"}},
                 .scalars = {{"mk", "makespan", /*before_rows=*/true}}},
  };
}

class ScheduleOperation final : public Operation {
 public:
  ScheduleOperation() : Operation(table()) {}

  void run(const Request& req, const ddg::Ddg& normalized, const RunEnv&,
           const support::SolveContext&, ResultPayload* out) const override {
    // A polynomial single solve: nothing to race, and it completes within
    // any budget.
    sched::Resources res;
    res.issue_width = static_cast<int>(option_value(req, "width"));
    const sched::Schedule sigma = sched::list_schedule(normalized, res);
    auto data = std::make_shared<OpData>(spec().result);
    data->scalar("makespan") = sched::makespan(normalized, sigma);
    for (ddg::RegType t = 0; t < normalized.type_count(); ++t) {
      const ddg::ValueSet values(normalized, t);
      data->add_row({t, values.count(),
                     sched::register_need(normalized, t, sigma)});
    }
    out->stats.solves = 1;
    out->data = std::move(data);
  }
};

}  // namespace

const Operation& schedule_operation() {
  static const ScheduleOperation op;
  return op;
}

}  // namespace rs::service::ops
