// Global register saturation over an acyclic CFG (section 6).
//
// Each block, expanded with its entry/exit values, is an independent DAG;
// global RS per type is the maximum over blocks. Because a *global*
// allocation may need one register above MAXLIVE for cross-block moves
// (the de Werra et al. bound the paper invokes), the reduction entry point
// takes a `move_margin` subtracted from every limit — the paper's
// suggestion of "decrementing R so the final allocation cannot exceed R
// even if move operations have been inserted".
//
// Blocks are independent, so both entry points fan per-block solves onto
// the Exec's thread pool (TaskGroup, nested-task submission — engine
// workers participating in their own fan-out cannot deadlock the pool).
// Results are collected by block index and aggregated in block order, so
// rows, maxima, stats, and notes are byte-identical whether the blocks ran
// serially or in parallel.
#pragma once

#include "cfg/cfg.hpp"
#include "core/exec.hpp"
#include "core/saturation.hpp"

namespace rs::cfg {

struct BlockSaturation {
  std::string block;
  std::vector<core::TypeSaturation> per_type;
  /// Aggregate solve effort and stop cause for this block (merged over its
  /// types); a block skipped because the budget was already exhausted
  /// reports TimedOut/Cancelled here with zero nodes.
  support::SolveStats stats;
};

struct GlobalReport {
  std::vector<BlockSaturation> blocks;
  /// max over blocks, per type.
  std::vector<int> global_rs;
  bool all_proven = true;
  /// Aggregate over all blocks.
  support::SolveStats stats;
  /// Blocks fanned onto the pool (0 when the request ran serially).
  int blocks_parallel = 0;
};

/// Computes RS of every expanded block and the global per-type maxima.
/// Budget policy: the remaining budget is split evenly under the shared
/// deadline — every block gets remaining / ceil(blocks / jobs) seconds
/// measured when it starts, so concurrent blocks hold equal shares and a
/// serial run gives each wave of one the same fraction. Once the budget is
/// exhausted (or the context is cancelled) the remaining blocks are not
/// solved at all — they report their stop cause per block instead of each
/// burning solver setup against an expired deadline — so the report always
/// carries one row per block, with per-block stop causes.
GlobalReport analyze(const Cfg& cfg, const core::AnalyzeOptions& opts = {},
                     const support::SolveContext& solve = {},
                     const core::Exec& exec = {});

struct GlobalReduceResult {
  /// Per-block register-safe DDGs (ready for per-block scheduling).
  std::vector<ddg::Ddg> blocks;
  std::vector<core::PipelineResult> details;
  bool success = true;
  std::string note;
  /// Blocks fanned onto the pool (0 when the request ran serially).
  int blocks_parallel = 0;
};

/// Runs the figure-1 pipeline on every block against limits[t]-move_margin.
/// Same budget split and fan-out policy as analyze().
GlobalReduceResult ensure_limits(const Cfg& cfg, const std::vector<int>& limits,
                                 int move_margin = 1,
                                 const core::PipelineOptions& opts = {},
                                 const support::SolveContext& solve = {},
                                 const core::Exec& exec = {});

}  // namespace rs::cfg
