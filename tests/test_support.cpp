#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#endif

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/bitset.hpp"
#include "support/metrics.hpp"
#include "support/random.hpp"
#include "support/socket.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace rs::support {
namespace {

TEST(Assert, RequireThrowsWithMessage) {
  try {
    RS_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Assert, CheckThrowsOnViolation) {
  EXPECT_THROW(RS_CHECK(false), PreconditionError);
  EXPECT_NO_THROW(RS_CHECK(true));
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, UnionIntersection) {
  DynamicBitset a(100), b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));
  EXPECT_TRUE(a.intersects(b));
  DynamicBitset c(100);
  c.set(1);
  EXPECT_FALSE(a.intersects(c));
}

TEST(Bitset, ForEachVisitsAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> want = {0, 63, 64, 65, 127, 128, 199};
  for (const auto i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(Bitset, SizeMismatchThrows) {
  DynamicBitset a(10), b(11);
  EXPECT_THROW(a |= b, PreconditionError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextIntBoundsInclusive) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdges) {
  Rng rng(13);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int heads = 0;
  for (int i = 0; i < 4000; ++i) heads += rng.next_bool(0.25);
  EXPECT_NEAR(heads / 4000.0, 0.25, 0.05);
}

TEST(Table, AlignmentAndCsv) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("a,1"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(fmt_percent(1, 4), "25.00%");
  EXPECT_EQ(fmt_percent(0, 0), "n/a");
  EXPECT_EQ(fmt_double(1.23456, 3), "1.235");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter++; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // Regression: a pool task that fans its own subtasks onto the same pool
  // and blocks on them would deadlock a single-worker pool (the only worker
  // is the one waiting). TaskGroup::wait runs queued nested tasks on the
  // waiting thread via try_run_one, so one worker suffices.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  std::atomic<bool> outer_done{false};
  pool.submit([&] {
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) group.run([&] { inner++; });
    group.wait();
    outer_done = true;
  });
  pool.wait_idle();
  EXPECT_TRUE(outer_done.load());
  EXPECT_EQ(inner.load(), 8);
}

TEST(ThreadPool, TaskGroupSerialFallback) {
  // A null pool degrades to inline execution — same code path callers use
  // when no executor is configured.
  TaskGroup group(nullptr);
  EXPECT_FALSE(group.parallel());
  int ran = 0;
  group.run([&] { ran++; });
  group.run([&] { ran++; });
  group.wait();
  EXPECT_EQ(ran, 2);
}

TEST(ThreadPool, TryRunOneOnlyTakesNestedTasks) {
  // try_run_one must never steal a top-level request: an external waiter
  // draining the queue would reorder request execution under the engine.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> top{0};
  pool.submit([&] { top++; });  // queued behind the blocker
  EXPECT_FALSE(pool.try_run_one());
  EXPECT_EQ(top.load(), 0);
  pool.submit_nested([&] { top += 10; });
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_EQ(top.load(), 10);
  release = true;
  pool.wait_idle();
  EXPECT_EQ(top.load(), 11);
}

TEST(ThreadPool, OnDoneRunsAfterTheTaskIsCounted) {
  // The serve loop renders a metrics scrape as soon as a request's on_done
  // wakes it, so that scrape must already count the task; and wait_idle()
  // covers on_done, so nothing it touches is torn down under it.
  MetricsRegistry metrics;
  ThreadPool pool(1, &metrics);
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::int64_t> active{-1};
  pool.submit([] {},
              [&] {
                tasks = metrics.counter("pool.tasks").value();
                active = metrics.gauge("pool.active").value();
              });
  pool.wait_idle();
  EXPECT_EQ(tasks.load(), 1u);
  EXPECT_EQ(active.load(), 0);
}

#if defined(__unix__) || defined(__APPLE__)
bool readable(const WakeFd& wake, int timeout_ms) {
  pollfd p = {wake.fd(), POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) == 1 && (p.revents & POLLIN) != 0;
}

TEST(WakeFd, SignalsCoalesceIntoOneWakeUntilDrained) {
  WakeFd wake;
  EXPECT_FALSE(readable(wake, 0));
  wake.signal();
  wake.signal();
  EXPECT_TRUE(readable(wake, 0));
  wake.drain();  // one drain consumes both signals
  EXPECT_FALSE(readable(wake, 0));
  wake.signal();  // re-armed
  EXPECT_TRUE(readable(wake, 0));
  wake.drain();
  EXPECT_FALSE(readable(wake, 0));
}

TEST(WakeFd, NoSignalIsLostAcrossThreads) {
  // Producers publish work then signal; the drainer drains before it
  // looks. Were a signal lost, the last batch of work would sit unseen and
  // the bounded poll below would time out.
  constexpr int kThreads = 4;
  constexpr int kEach = 2000;
  WakeFd wake;
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) {
        done.fetch_add(1, std::memory_order_relaxed);
        wake.signal();
      }
    });
  }
  int seen = 0;
  bool lost = false;
  while (seen < kThreads * kEach && !lost) {
    lost = !readable(wake, 10000);
    wake.drain();
    seen = done.load(std::memory_order_relaxed);
  }
  for (auto& p : producers) p.join();
  EXPECT_FALSE(lost) << "no wake after " << seen << " of "
                     << kThreads * kEach;
}
#endif

}  // namespace
}  // namespace rs::support
