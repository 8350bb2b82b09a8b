#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "util/cancellation.h"
#include "util/concurrency.h"

namespace kpj {
namespace {

TEST(ThreadPoolTest, SpawnsExactlyRequestedWorkers) {
  // No hardware clamp inside the pool: oversubscription is the caller's
  // deliberate choice (determinism and sanitizer tests rely on it).
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_workers(), 8u);
  ThreadPool one(1);
  EXPECT_EQ(one.num_workers(), 1u);
  ThreadPool zero(0);  // 0 is promoted to a single worker.
  EXPECT_EQ(zero.num_workers(), 1u);
}

TEST(ThreadPoolTest, EverySubmittedTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i](unsigned) { hits[i].fetch_add(1); });
    }
    pool.WaitIdle();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Destruction waits for queued work: every Submit is eventually executed.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran](unsigned) { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, WorkerIdsAreStablePoolIds) {
  ThreadPool pool(3);
  std::atomic<unsigned> max_worker{0};
  pool.ParallelFor(300, [&](size_t, unsigned w) {
    unsigned cur = max_worker.load();
    while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
    }
  });
  EXPECT_LT(max_worker.load(), pool.num_workers());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (size_t count : {0u, 1u, 7u, 1000u}) {
    std::vector<std::atomic<int>> hits(count);
    pool.ParallelFor(count,
                     [&](size_t i, unsigned) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForIsReusable) {
  // The engine runs many batches on one pool; indices must not leak
  // between calls.
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i, unsigned) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
  sum.store(0);
  pool.ParallelFor(5, [&](size_t i, unsigned) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, SubmitDuringParallelForInterleavesSafely) {
  ThreadPool pool(4);
  std::atomic<int> submitted_ran{0};
  pool.ParallelFor(50, [&](size_t i, unsigned) {
    if (i % 10 == 0) {
      pool.Submit([&submitted_ran](unsigned) { submitted_ran.fetch_add(1); });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(submitted_ran.load(), 5);
}

TEST(ThreadPoolTest, ClampToHardwareBehavior) {
  EXPECT_EQ(ThreadPool::ClampToHardware(0), 1u);
  EXPECT_EQ(ThreadPool::ClampToHardware(1), 1u);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;  // The documented fallback when hw is unknown.
  EXPECT_EQ(ThreadPool::ClampToHardware(hw + 1), hw);
  EXPECT_EQ(ThreadPool::ClampToHardware(1u << 20), hw);
  EXPECT_EQ(ThreadPool::ClampToHardware(1u << 20), EffectiveWorkers(1u << 20));
  EXPECT_EQ(EffectiveWorkers(0), 1u);
  EXPECT_EQ(EffectiveWorkers(2), std::min(2u, hw));
  // Monotone in the request.
  for (unsigned t = 1; t < 20; ++t) {
    EXPECT_LE(EffectiveWorkers(t), EffectiveWorkers(t + 1));
  }
}

TEST(ThreadPoolTest, ResolveWorkerCount) {
  // 0 = hardware pick; clamp off = verbatim; clamp on = EffectiveWorkers.
  EXPECT_GE(ResolveWorkerCount(0, true), 1u);
  EXPECT_EQ(ResolveWorkerCount(7, false), 7u);
  EXPECT_EQ(ResolveWorkerCount(7, true), EffectiveWorkers(7));
}

TEST(CancellationTokenTest, StartsClearAndLatchesOnRequest) {
  CancellationToken token;
  EXPECT_FALSE(token.ShouldStop());
  token.RequestCancel();
  EXPECT_TRUE(token.ShouldStop());
  // Monotone: stays latched.
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.CancelStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ExpiredDeadlineTripsOnFirstPoll) {
  CancellationToken token;
  token.SetDeadlineAfterMs(0.0);  // Already expired.
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.CancelStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, GenerousDeadlineDoesNotTrip) {
  CancellationToken token;
  token.SetDeadlineAfterMs(60'000.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.ShouldStop());
}

TEST(CancellationTokenTest, DeadlineEventuallyTripsUnderPolling) {
  CancellationToken token;
  token.SetDeadlineAfterMs(5.0);
  auto start = std::chrono::steady_clock::now();
  // Poll like a solver loop; the stride-amortized clock check must still
  // observe the deadline well within the test timeout.
  while (!token.ShouldStop()) {
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
  }
  EXPECT_EQ(token.CancelStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, CrossThreadCancelIsObserved) {
  CancellationToken token;
  std::atomic<bool> stopped{false};
  std::thread poller([&] {
    while (!token.ShouldStop()) {
    }
    stopped.store(true);
  });
  token.RequestCancel();
  poller.join();
  EXPECT_TRUE(stopped.load());
}

}  // namespace
}  // namespace kpj
