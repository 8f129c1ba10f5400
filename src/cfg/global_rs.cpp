#include "cfg/global_rs.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace rs::cfg {

namespace {

// Fan-out geometry shared by both entry points: at most `jobs` blocks run
// concurrently, so a run is ceil(n / jobs) waves deep and each block's fair
// budget share is remaining / waves (measured when the block starts — the
// shared-deadline even split).
struct Fanout {
  support::ThreadPool* pool = nullptr;
  int waves = 1;
  int parallel_blocks = 0;
};

Fanout plan_fanout(int blocks, const core::Exec& exec) {
  Fanout f;
  if (blocks <= 0) return f;
  const int jobs = std::min(exec.effective_jobs(), blocks);
  f.waves = (blocks + jobs - 1) / jobs;
  if (jobs >= 2) {
    f.pool = exec.fanout_pool();
    if (f.pool != nullptr) f.parallel_blocks = blocks;
  }
  return f;
}

}  // namespace

GlobalReport analyze(const Cfg& cfg, const core::AnalyzeOptions& opts,
                     const support::SolveContext& solve,
                     const core::Exec& exec) {
  GlobalReport report;
  const int n = cfg.block_count();
  report.global_rs.assign(cfg.type_count(), 0);
  report.blocks.resize(n);
  const Fanout fan = plan_fanout(n, exec);
  report.blocks_parallel = fan.parallel_blocks;

  support::TaskGroup group(fan.pool);
  for (int b = 0; b < n; ++b) {
    group.run([&, b] {
      const ddg::Ddg dag = cfg.expand_block(b);
      BlockSaturation bs;
      bs.block = cfg.block(b).name;
      if (solve.stop_requested()) {
        // Budget exhausted (or cancelled) before this block started: report
        // the stop cause per type instead of running the solver stack
        // against a dead deadline. Value counts are still real (they cost
        // one expansion, no search); rs stays the trivial 0 bound.
        for (int t = 0; t < cfg.type_count(); ++t) {
          core::TypeSaturation ts;
          ts.type = t;
          ts.value_count = static_cast<int>(dag.values_of_type(t).size());
          ts.stats.stop = solve.cause_now(false);
          bs.stats.merge(ts.stats);
          bs.per_type.push_back(std::move(ts));
        }
      } else {
        const core::SaturationReport block_report =
            core::analyze(dag, opts, solve.split(fan.waves));
        bs.per_type = block_report.per_type;
        bs.stats = block_report.stats;
      }
      report.blocks[b] = std::move(bs);
    });
  }
  group.wait();

  // Aggregate in block order regardless of completion order.
  for (int b = 0; b < n; ++b) {
    const BlockSaturation& bs = report.blocks[b];
    for (int t = 0; t < cfg.type_count(); ++t) {
      report.global_rs[t] = std::max(report.global_rs[t], bs.per_type[t].rs);
      report.all_proven = report.all_proven && bs.per_type[t].proven;
    }
    report.stats.merge(bs.stats);
  }
  return report;
}

GlobalReduceResult ensure_limits(const Cfg& cfg, const std::vector<int>& limits,
                                 int move_margin,
                                 const core::PipelineOptions& opts,
                                 const support::SolveContext& solve,
                                 const core::Exec& exec) {
  RS_REQUIRE(static_cast<int>(limits.size()) == cfg.type_count(),
             "one limit per register type");
  RS_REQUIRE(move_margin >= 0, "negative move margin");
  std::vector<int> effective(limits.size());
  for (std::size_t t = 0; t < limits.size(); ++t) {
    effective[t] = limits[t] - move_margin;
    RS_REQUIRE(effective[t] >= 1,
               "register file too small for the move margin");
  }
  GlobalReduceResult result;
  const int n = cfg.block_count();
  result.details.resize(n);
  const Fanout fan = plan_fanout(n, exec);
  result.blocks_parallel = fan.parallel_blocks;

  support::TaskGroup group(fan.pool);
  for (int b = 0; b < n; ++b) {
    group.run([&, b] {
      const ddg::Ddg dag = cfg.expand_block(b);
      result.details[b] =
          core::ensure_limits(dag, effective, opts, solve.split(fan.waves));
    });
  }
  group.wait();

  // Aggregate in block order regardless of completion order.
  for (int b = 0; b < n; ++b) {
    core::PipelineResult& block_result = result.details[b];
    if (!block_result.success) {
      result.success = false;
      result.note += "block " + cfg.block(b).name + ": " + block_result.note;
    }
    result.blocks.push_back(block_result.out);
  }
  return result;
}

}  // namespace rs::cfg
