#include "util/thread_pool.h"

#include <algorithm>

#include "util/concurrency.h"

namespace kpj {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t, unsigned)>& body) {
  if (count == 0) return;
  // Shared atomic index counter: workers pull the next undone index until
  // the range is exhausted. One drain task per worker keeps every worker
  // busy without slicing the range statically.
  std::atomic<size_t> next{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  unsigned pending = num_workers();
  auto drain = [&](unsigned worker) {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      body(i, worker);
    }
    // Notify under the lock: once the caller observes pending == 0 these
    // locals die, so the cv must not be touched outside the critical
    // section.
    std::unique_lock<std::mutex> lock(done_mu);
    --pending;
    done_cv.notify_one();
  };
  for (unsigned w = 0; w < num_workers(); ++w) Submit(drain);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return pending == 0; });
}

unsigned ThreadPool::ClampToHardware(unsigned threads) {
  return EffectiveWorkers(threads);
}

void ThreadPool::WorkerLoop(unsigned worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining tasks even when stopping so every Submit runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task(worker);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace kpj
