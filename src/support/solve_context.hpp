// SolveContext: the shared budget/cancellation/statistics spine threaded
// through every solver layer.
//
// RS and SRC are NP-complete, so every exact answer in this library is
// qualified by "proven within budget". Historically each layer carried its
// own time_limit_seconds double and hand-copied it into sub-options; this
// header replaces that plumbing with one object passed down the call chain:
//
//   * a Deadline (absolute steady_clock time point; children can only
//     tighten it, never extend it);
//   * a CancelToken (shared atomic flag flipped by another thread — the
//     analysis engine's cancel/drain verbs, or a SIGINT handler);
//   * a SolveStats sink accumulating search effort across every leaf solve
//     run under the context (branch-and-bound nodes, bound prunes, simplex
//     iterations, refinement passes).
//
// Hot-loop protocol: solvers call should_stop(tick) once per search node.
// The cancel flag is a relaxed atomic load checked on every call; the
// deadline clock is only consulted every kPollInterval ticks, keeping clock
// syscalls out of the per-node hot path.
//
// Stop-cause taxonomy (SolveStats::stop):
//   Proven    — search space exhausted; the answer is exact.
//   LimitHit  — a structural limit (node/round cap) truncated the search.
//   TimedOut  — the deadline expired.
//   Cancelled — the cancel token fired.
// merge() keeps the most severe cause in that order, so a pipeline's
// aggregate stats report the strongest reason any sub-solve stopped early.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace rs::support {

struct SolverProfile;  // support/metrics.hpp

enum class StopCause {
  Proven = 0,     // search completed; result is exact
  LimitHit = 1,   // node/round limit truncated the search
  TimedOut = 2,   // deadline expired
  Cancelled = 3,  // cancel token fired
};

/// Short lowercase token (proven|limit|timeout|cancelled), stable for the
/// service protocol and --stats output.
const char* stop_cause_token(StopCause c);

/// Severity order: Cancelled > TimedOut > LimitHit > Proven.
inline StopCause worse_cause(StopCause a, StopCause b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Search-effort counters plus why the solve stopped. Every solver result
/// struct carries one; composites merge their children's.
struct SolveStats {
  long long nodes = 0;               // branch-and-bound / DFS nodes explored
  long long prunes = 0;              // subtrees cut by an admissible bound
  long long simplex_iterations = 0;  // LP pivots under branch-and-bound
  long long refine_passes = 0;       // greedy steepest-ascent passes
  long long solves = 0;              // leaf solver runs aggregated here
  StopCause stop = StopCause::Proven;

  bool interrupted() const { return stop != StopCause::Proven; }

  void merge(const SolveStats& o) {
    nodes += o.nodes;
    prunes += o.prunes;
    simplex_iterations += o.simplex_iterations;
    refine_passes += o.refine_passes;
    solves += o.solves;
    stop = worse_cause(stop, o.stop);
  }

  /// One-line human-readable rendering for --stats.
  std::string summary() const;
};

/// Shared cooperative cancellation flag. Copies observe (and flip) the same
/// flag; flipping is a one-way transition.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const {
    flag_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

class SolveContext {
 public:
  /// Deadline clock is consulted every kPollInterval should_stop() ticks.
  static constexpr long long kPollInterval = 1024;

  /// Unlimited budget, fresh token, fresh stats sink.
  SolveContext() : SolveContext(0.0) {}

  /// budget_seconds <= 0 means "no deadline" (structural node limits still
  /// apply in every solver).
  explicit SolveContext(double budget_seconds, CancelToken token = {});

  bool cancelled() const { return token_.cancelled(); }
  bool expired() const {
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }
  /// Full check (atomic load + clock syscall); use between coarse phases.
  bool stop_requested() const { return cancelled() || expired(); }

  /// Hot-loop check: cancel flag every call, deadline clock only when
  /// tick % kPollInterval == 0. Pass a monotonically increasing node count.
  bool should_stop(long long tick) const {
    if (cancelled()) return true;
    return (tick & (kPollInterval - 1)) == 0 && expired();
  }

  bool unlimited() const { return deadline_ == Clock::time_point::max(); }
  /// Seconds until the deadline (a large number when unlimited, <= 0 when
  /// already expired).
  double remaining_seconds() const;

  /// Why a search that stopped now stopped: Cancelled beats TimedOut beats
  /// (limit_exhausted ? LimitHit : Proven).
  StopCause cause_now(bool limit_exhausted) const {
    if (cancelled()) return StopCause::Cancelled;
    if (expired()) return StopCause::TimedOut;
    return limit_exhausted ? StopCause::LimitHit : StopCause::Proven;
  }

  /// Child context sharing this context's token and stats sink, with the
  /// deadline tightened to min(parent, now + seconds). seconds <= 0 keeps
  /// the parent deadline unchanged. Children can never outlive the parent.
  SolveContext sub_budget(double seconds) const;

  /// Even split of the remaining budget across `ways` sequential stages:
  /// sub_budget(remaining / ways). Unlimited parents stay unlimited.
  SolveContext split(int ways) const;

  /// Child context carrying the solver-interior instrumentation bundle (see
  /// support/metrics.hpp). Attached once at the service boundary; every
  /// child context (sub_budget, split, copies) inherits it.
  /// `profile` may be null (profiling off) and must outlive every solve run
  /// under the returned context.
  SolveContext with_profile(const SolverProfile* profile) const {
    return SolveContext(token_, sink_, deadline_, profile);
  }

  /// Solver-interior metric bundle, or null when profiling is off. Solvers
  /// null-check once per solve and flush locally accumulated effort.
  const SolverProfile* profile() const { return profile_; }

  CancelToken token() const { return token_; }
  void request_cancel() const { token_.request_cancel(); }

  /// Leaf solvers record their per-run stats here exactly once; composite
  /// layers merge child *result* stats instead (never re-record), so the
  /// sink totals stay double-count-free. Two channels on purpose: result
  /// stats are *attributed* effort (what this call's answer cost, the
  /// number a caller inspecting one result wants), while the sink is
  /// *total* effort under the context — including probe solves no result
  /// owns — for whole-request accounting and cross-thread observability
  /// while a solve is still running.
  void record(const SolveStats& s) const;
  /// Snapshot of everything recorded under this context (or its children).
  SolveStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Shared effort accumulator: written from every thread a request fans
  /// onto (per-block solves), read by observers while the solve is still
  /// running.
  struct Sink {
    Mutex mu;
    SolveStats stats RSAT_GUARDED_BY(mu);
  };

  SolveContext(CancelToken token, std::shared_ptr<Sink> sink,
               Clock::time_point deadline,
               const SolverProfile* profile = nullptr)
      : token_(std::move(token)),
        sink_(std::move(sink)),
        deadline_(deadline),
        profile_(profile) {}

  CancelToken token_;
  std::shared_ptr<Sink> sink_;
  Clock::time_point deadline_;
  const SolverProfile* profile_ = nullptr;
};

}  // namespace rs::support
