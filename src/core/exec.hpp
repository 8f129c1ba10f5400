// Execution resources for the per-block fan-out of cfg::analyze and
// cfg::ensure_limits: an optional shared ThreadPool plus a jobs override.
// Results stay correct with the default (`Exec{}` — no pool, serial): the
// fan-out is written against TaskGroup, which degrades to inline execution
// when the pool is null, so serial and parallel runs share one code path
// and one result.
//
// The pool is *borrowed* — the service engine owns it and its workers are
// the callers, which is why fan-out uses submit_nested/TaskGroup (see
// thread_pool.hpp) rather than submit: a worker blocked on its own fan-out
// participates instead of deadlocking.
#pragma once

#include "support/thread_pool.hpp"

namespace rs::core {

struct Exec {
  support::ThreadPool* pool = nullptr;
  /// Upper bound on concurrent tasks per fan-out; <= 0 means the pool's
  /// thread count. Ignored when pool is null.
  int jobs = 0;

  int effective_jobs() const {
    if (pool == nullptr) return 1;
    int n = jobs > 0 ? jobs : static_cast<int>(pool->thread_count());
    return n < 1 ? 1 : n;
  }

  /// Pool to fan onto, or null when fan-out would not help (no pool, or a
  /// jobs=1 request that asks for serial execution).
  support::ThreadPool* fanout_pool() const {
    return effective_jobs() >= 2 ? pool : nullptr;
  }
};

}  // namespace rs::core
