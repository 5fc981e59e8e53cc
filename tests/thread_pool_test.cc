// ThreadPool: correctness of the index distribution, inline fallback,
// exception propagation, reuse across many ParallelFor calls, and the
// nesting rule (nested fan-outs run inline on the outer pool's threads).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pnr {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0u);  // no workers spawned
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  pool.ParallelFor(ids.size(), [&](size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, PerIndexSlotsNeedNoSynchronization) {
  // The engine's usage pattern: each index writes its own slot; the caller
  // reduces afterwards.
  ThreadPool pool(8);
  std::vector<double> slots(1000, 0.0);
  pool.ParallelFor(slots.size(), [&](size_t i) {
    slots[i] = static_cast<double>(i) * 0.5;
  });
  const double sum = std::accumulate(slots.begin(), slots.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (999.0 * 1000.0 / 2.0));
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                         completed++;
                       }),
      std::runtime_error);
  // Every non-throwing index still ran (the pool drains the job).
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&](size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 200L * 17L);
}

TEST(ThreadPoolTest, NestedPoolSpawnsNoWorkersAndRunsInline) {
  // The composition rule: inside a loop body a new pool spawns no workers
  // and its ParallelFor runs every index on the body's own thread.
  ThreadPool outer(4);
  std::vector<size_t> nested_workers(8, 99);
  std::vector<int> off_thread(8, -1);
  outer.ParallelFor(8, [&](size_t i) {
    ThreadPool inner(4);
    nested_workers[i] = inner.num_threads();
    const std::thread::id body_thread = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    inner.ParallelFor(16, [&](size_t) {
      if (std::this_thread::get_id() != body_thread) elsewhere++;
    });
    off_thread[i] = elsewhere.load();
  });
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(nested_workers[i], 0u) << "task " << i;
    EXPECT_EQ(off_thread[i], 0) << "task " << i;
  }
}

TEST(ThreadPoolTest, NestedBodiesStayOnTheOuterThreads) {
  // Distinct threads seen by nested bodies never exceed the outer pool's
  // workers plus its caller, however wide the inner pools ask to be.
  const size_t kOuter = 3;
  ThreadPool outer(kOuter);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  outer.ParallelFor(32, [&](size_t) {
    ThreadPool inner(8);
    inner.ParallelFor(16, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
    });
  });
  EXPECT_LE(seen.size(), kOuter + 1);
}

TEST(ThreadPoolTest, ThrowingBodyRestoresTheCallersMark) {
  // A body that throws must not leave its thread marked as inside a loop:
  // pools built afterwards on the same thread still spawn workers.
  for (const size_t width : {size_t{1}, size_t{4}}) {
    ThreadPool pool(width);
    EXPECT_THROW(pool.ParallelFor(
                     4, [](size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    ThreadPool after(2);
    EXPECT_EQ(after.num_threads(), 2u) << "width " << width;
  }
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);  // auto: >= 1
}

TEST(ThreadBudgetTest, ReserveClampsToCapacity) {
  ThreadBudget budget(4);
  EXPECT_EQ(budget.total(), 4u);
  EXPECT_EQ(budget.Reserve(3), 3u);
  EXPECT_EQ(budget.in_use(), 3u);
  EXPECT_EQ(budget.Reserve(10), 1u);  // only 1 left
  EXPECT_EQ(budget.Reserve(5), 0u);   // nothing left
  EXPECT_EQ(budget.in_use(), 4u);
}

TEST(ThreadBudgetTest, AcquireNeverGrantsLessThanOne) {
  ThreadBudget budget(2);
  EXPECT_EQ(budget.Reserve(2), 2u);  // budget exhausted by the outer pool
  ThreadBudget::Lease lease = budget.Acquire(8);
  // The task's own (already-reserved) thread is always granted.
  EXPECT_EQ(lease.count(), 1u);
  EXPECT_EQ(budget.in_use(), 2u);  // no extras were available
}

TEST(ThreadBudgetTest, LeaseReturnsExtrasOnDestruction) {
  ThreadBudget budget(8);
  EXPECT_EQ(budget.Reserve(2), 2u);
  {
    ThreadBudget::Lease lease = budget.Acquire(8);
    EXPECT_EQ(lease.count(), 7u);  // 1 own + 6 extras
    EXPECT_EQ(budget.in_use(), 8u);
    ThreadBudget::Lease second = budget.Acquire(8);
    EXPECT_EQ(second.count(), 1u);  // pool drained; still >= 1
  }
  EXPECT_EQ(budget.in_use(), 2u);  // extras back, reservation persists
}

TEST(ThreadBudgetTest, NestedFanOutNeverOversubscribes) {
  // Reserved outer threads plus leased extras: at any instant the nominal
  // live thread count — outer workers plus every lease's extras — never
  // exceeds the budget.
  const size_t kBudget = 6;
  const size_t kOuter = 3;
  ThreadBudget budget(kBudget);
  ASSERT_EQ(budget.Reserve(kOuter), kOuter);

  ThreadPool pool(kOuter);
  std::atomic<size_t> live{kOuter};  // the outer workers themselves
  std::atomic<size_t> high_water{kOuter};
  pool.ParallelFor(64, [&](size_t) {
    ThreadBudget::Lease lease = budget.Acquire(kBudget);
    EXPECT_GE(lease.count(), 1u);
    const size_t extras = lease.count() - 1;
    size_t now = live.fetch_add(extras) + extras;
    size_t seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    // Simulate the inner training using its granted width.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    live.fetch_sub(extras);
  });
  EXPECT_LE(high_water.load(), kBudget);
  EXPECT_EQ(budget.in_use(), kOuter);  // every lease returned its extras
}

}  // namespace
}  // namespace pnr
