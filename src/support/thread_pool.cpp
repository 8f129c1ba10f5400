#include "support/thread_pool.hpp"

#include <atomic>
#include <chrono>

#include "support/metrics.hpp"

namespace rs::support {

ThreadPool::ThreadPool(std::size_t threads, MetricsRegistry* metrics) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (metrics != nullptr) {
    queue_depth_ = &metrics->gauge("pool.queue_depth");
    active_ = &metrics->gauge("pool.active");
    tasks_done_ = &metrics->counter("pool.tasks");
    queue_wait_ms_ = &metrics->histogram("pool.queue_wait_ms");
    task_ms_ = &metrics->histogram("pool.task_ms");
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task,
                        std::function<void()> on_done) {
  {
    LockGuard lock(mutex_);
    queue_.push(Task{std::move(task), Timer{}, std::move(on_done)});
    ++in_flight_;
  }
  if (queue_depth_ != nullptr) queue_depth_->add(1);
  cv_task_.notify_one();
}

void ThreadPool::submit_nested(std::function<void()> task) {
  {
    LockGuard lock(mutex_);
    nested_.push_back(Task{std::move(task), Timer{}, {}});
    ++in_flight_;
  }
  if (queue_depth_ != nullptr) queue_depth_->add(1);
  cv_task_.notify_one();
}

bool ThreadPool::try_run_one() {
  Task task;
  {
    LockGuard lock(mutex_);
    if (nested_.empty()) return false;
    task = std::move(nested_.front());
    nested_.pop_front();
  }
  run_task(std::move(task));
  return true;
}

void ThreadPool::wait_idle() {
  // Explicit wait loop (not a predicate lambda): the in_flight_ read must
  // sit in this annotated body, where the analysis can see the lock held.
  UniqueLock lock(mutex_);
  while (in_flight_ != 0) cv_idle_.wait(lock);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunk-free dynamic scheduling: individual tasks here are coarse
  // (an exact ILP solve each), so per-index dispatch overhead is noise.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t workers = thread_count();
  const std::size_t tasks = std::min(n, workers);
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([next, n, &fn] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty() && nested_.empty()) {
        cv_task_.wait(lock);
      }
      // Nested tasks first: finish fan-out of in-flight requests before
      // starting new top-level ones.
      if (!nested_.empty()) {
        task = std::move(nested_.front());
        nested_.pop_front();
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      } else {
        return;  // stopping_ and drained
      }
    }
    run_task(std::move(task));
  }
}

void ThreadPool::run_task(Task task) {
  if (queue_depth_ != nullptr) queue_depth_->sub(1);
  if (queue_wait_ms_ != nullptr) queue_wait_ms_->observe(task.queued.millis());
  if (active_ != nullptr) active_->add(1);
  Timer run;
  task.fn();
  if (active_ != nullptr) active_->sub(1);
  if (task_ms_ != nullptr) task_ms_->observe(run.millis());
  if (tasks_done_ != nullptr) tasks_done_->inc();
  if (task.on_done) task.on_done();
  {
    LockGuard lock(mutex_);
    --in_flight_;
    if (in_flight_ == 0) cv_idle_.notify_all();
  }
}

void TaskGroup::run(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    LockGuard lock(mu_);
    ++pending_;
  }
  pool_->submit_nested([this, task = std::move(task)] {
    task();
    LockGuard lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::wait() {
  if (pool_ == nullptr) return;  // everything ran inline
  for (;;) {
    {
      LockGuard lock(mu_);
      if (pending_ == 0) return;
    }
    // Prefer doing the group's own (or a sibling's) nested work over
    // sleeping; the 1 ms nap only triggers while all nested tasks are
    // already being executed by other threads.
    if (pool_->try_run_one()) continue;
    UniqueLock lock(mu_);
    if (pending_ == 0) return;
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

}  // namespace rs::support
