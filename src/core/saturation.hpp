// Top-level API: the paper's figure-1 pipeline.
//
//   DAG -> [RS computation] -> (fits? done) -> [RS reduction] -> DAG'
//
// After this pass the DDG carries no register constraints: any schedule a
// downstream (resource-constrained, register-blind) scheduler produces is
// guaranteed allocatable within the register file.
#pragma once

#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/greedy_k.hpp"
#include "core/reduce.hpp"

namespace rs::core {

enum class RsEngine {
  Greedy,            // heuristic only (witnessed lower estimate)
  ExactCombinatorial,  // branch-and-bound over killing functions
  ExactIlp,          // the section-3 intLP
};

struct AnalyzeOptions {
  RsEngine engine = RsEngine::ExactCombinatorial;
  GreedyOptions greedy;
};

struct TypeSaturation {
  ddg::RegType type = 0;
  int value_count = 0;
  int rs = 0;        // register saturation (or witnessed estimate)
  bool proven = false;  // true when rs is exactly RS_t(G)
  sched::Schedule witness;  // schedule with RN == rs
  support::SolveStats stats;  // this type's solve effort + stop cause
};

struct SaturationReport {
  std::vector<TypeSaturation> per_type;
  support::SolveStats stats;  // aggregate over all types

  const TypeSaturation& of(ddg::RegType t) const { return per_type[t]; }
  /// True when rs <= limits[t] for every type (no reduction needed).
  bool fits(const std::vector<int>& limits) const;
};

/// Computes (or estimates) RS for every register type. The paper's fast
/// path applies: a type with |values| <= limit never needs analysis, but RS
/// is still reported for completeness. The context's budget is split evenly
/// across the types still to analyze (each type gets remaining / types_left
/// seconds, so an easy early type donates its slack to the later ones).
SaturationReport analyze(const ddg::Ddg& ddg, const AnalyzeOptions& opts = {},
                         const support::SolveContext& solve = {});

struct PipelineOptions {
  AnalyzeOptions analyze;
  ReduceOptions reduce;
  /// Use the exact reduction (decrement-loop SRC search) instead of the
  /// CC'01 serialization heuristic.
  bool exact_reduction = false;
  /// After a heuristic reduction, re-verify RS(G-bar) with the exact engine
  /// and keep reducing if the heuristic under-estimated (belt and braces —
  /// heuristic RS* is a lower bound, so unverified reductions could leave
  /// RS above the limit in rare cases).
  bool verify = true;
};

struct PipelineResult {
  ddg::Ddg out;                      // register-pressure-safe DDG
  std::vector<ReduceResult> per_type;
  bool success = true;               // all types within limits
  std::string note;                  // diagnostics when success is false
  support::SolveStats stats;         // aggregate over all types' sub-solves
};

/// Runs the full early-register-pressure pipeline against per-type register
/// file sizes. limits.size() must equal ddg.type_count(). The context's
/// budget is split evenly across the types still to reduce; a cancelled
/// context stops between types and reports the remaining ones as LimitHit.
/// The verification engine follows opts.analyze.engine: the exact
/// branch-and-bound for Greedy/ExactCombinatorial (the historical
/// behavior) and the intLP for ExactIlp.
PipelineResult ensure_limits(const ddg::Ddg& ddg, const std::vector<int>& limits,
                             const PipelineOptions& opts = {},
                             const support::SolveContext& solve = {});

}  // namespace rs::core
