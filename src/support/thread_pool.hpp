// Minimal fixed-size thread pool for embarrassingly parallel experiment
// sweeps (one task per (DAG, R) instance). Results are collected by index so
// output tables are deterministic regardless of scheduling order.
//
// Two task classes share the workers:
//
//  * submit() — top-level work (whole service requests). FIFO.
//  * submit_nested() — work fanned out from *inside* a running task (per-block
//    solves). Workers drain nested tasks before starting new top-level ones,
//    so in-flight requests finish ahead of queued ones,
//    and TaskGroup::wait() lets the submitting thread execute nested tasks
//    itself (try_run_one) instead of blocking — a pool whose every worker
//    waits on nested work it could run cannot deadlock.
//
// When constructed with a MetricsRegistry the pool reports:
//   pool.queue_depth (gauge)     tasks enqueued but not yet picked up
//   pool.active (gauge)          tasks currently executing
//   pool.tasks (counter)         tasks completed since construction
//   pool.queue_wait_ms (histogram)  submit -> worker pickup
//   pool.task_ms (histogram)        task execution time
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace rs::support {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  /// When `metrics` is non-null the pool registers its gauges/histograms
  /// there; the registry must outlive the pool.
  explicit ThreadPool(std::size_t threads = 0,
                      MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw; wrap fallible work yourself.
  /// A non-empty `on_done` runs on the same worker after the task and its
  /// pool.* accounting, before wait_idle() can return; it must not throw.
  void submit(std::function<void()> task, std::function<void()> on_done = {})
      RSAT_EXCLUDES(mutex_);

  /// Enqueues a task spawned from inside a running task. Nested tasks are
  /// drained ahead of top-level ones and are eligible for try_run_one(), so
  /// a worker waiting on its own fan-out always has something useful to do.
  void submit_nested(std::function<void()> task) RSAT_EXCLUDES(mutex_);

  /// Runs one queued *nested* task on the calling thread (with full metric
  /// and in-flight accounting) and returns true; returns false when no
  /// nested task is queued. Top-level tasks are never stolen here — inlining
  /// a foreign whole request under a waiter would serialize, not help.
  /// The task itself runs with mutex_ released.
  bool try_run_one() RSAT_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished executing.
  void wait_idle() RSAT_EXCLUDES(mutex_);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until done.
  /// fn must be safe to invoke concurrently for distinct i.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    Timer queued;  // started at submit; read at pickup for queue_wait_ms
    std::function<void()> on_done;
  };

  void worker_loop() RSAT_EXCLUDES(mutex_);
  /// Runs one dequeued task. Deliberately unlocked while the task executes
  /// (only the final in-flight bookkeeping takes mutex_): a task may itself
  /// submit nested work or block in TaskGroup::wait.
  void run_task(Task task) RSAT_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<Task> queue_ RSAT_GUARDED_BY(mutex_);
  std::deque<Task> nested_ RSAT_GUARDED_BY(mutex_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ RSAT_GUARDED_BY(mutex_) = 0;
  bool stopping_ RSAT_GUARDED_BY(mutex_) = false;

  // Cached registry entries (null when unmetered). Resolved once in the
  // constructor so the hot path never touches the registry mutex.
  Gauge* queue_depth_ = nullptr;
  Gauge* active_ = nullptr;
  Counter* tasks_done_ = nullptr;
  Histogram* queue_wait_ms_ = nullptr;
  Histogram* task_ms_ = nullptr;
};

/// Scoped fan-out of nested tasks with a participating wait. With a null
/// pool run() executes inline, so serial and parallel callers share one code
/// path. wait() loops {try_run_one; brief sleep} instead of blocking,
/// which is what makes nested submission deadlock-free: the waiter is itself
/// a worker for the tasks it is waiting on.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  bool parallel() const { return pool_ != nullptr; }

  /// Runs `task` on the pool (inline when no pool). Tasks must not throw.
  void run(std::function<void()> task) RSAT_EXCLUDES(mu_);

  /// Blocks until every run() task has finished. Stolen tasks run with mu_
  /// released.
  void wait() RSAT_EXCLUDES(mu_);

 private:
  ThreadPool* pool_;
  Mutex mu_;
  CondVar cv_;
  std::size_t pending_ RSAT_GUARDED_BY(mu_) = 0;
};

}  // namespace rs::support
