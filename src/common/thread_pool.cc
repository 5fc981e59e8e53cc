#include "common/thread_pool.h"

#include <algorithm>

namespace pnr {
namespace {

// True while this thread runs a ParallelFor loop body. Nested ParallelFors
// run inline and nested pools spawn no workers (see thread_pool.h).
thread_local bool t_in_loop_body = false;

// Marks the current thread as inside a loop body for its lifetime,
// restoring the previous mark even when the body throws.
class LoopBodyScope {
 public:
  LoopBodyScope() : outer_(t_in_loop_body) { t_in_loop_body = true; }
  ~LoopBodyScope() { t_in_loop_body = outer_; }
  LoopBodyScope(const LoopBodyScope&) = delete;
  LoopBodyScope& operator=(const LoopBodyScope&) = delete;

 private:
  const bool outer_;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1 || t_in_loop_body) return;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

size_t ThreadPool::ClampThreadsForRows(size_t requested, size_t rows) {
  const size_t resolved = ResolveThreadCount(requested);
  const size_t cap = std::max<size_t>(1, rows / kMinRowsPerThread);
  return std::min(resolved, cap);
}

size_t ThreadPool::ClampThreadsForBytes(size_t requested, size_t bytes) {
  const size_t resolved = ResolveThreadCount(requested);
  const size_t cap = std::max<size_t>(1, bytes / kMinBytesPerThread);
  return std::min(resolved, cap);
}

void ThreadPool::DrainJob(std::unique_lock<std::mutex>& lock) {
  while (job_fn_ != nullptr && next_index_ < job_count_) {
    const size_t index = next_index_++;
    const std::function<void(size_t)>* fn = job_fn_;
    lock.unlock();
    std::exception_ptr error;
    try {
      LoopBodyScope scope;
      (*fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) error_ = error;
    ++completed_;
    if (completed_ == job_count_) done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (job_fn_ != nullptr && next_index_ < job_count_);
    });
    if (shutdown_) return;
    DrainJob(lock);
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (threads_.empty() || count == 1 || t_in_loop_body) {
    LoopBodyScope scope;
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_fn_ = &fn;
  job_count_ = count;
  next_index_ = 0;
  completed_ = 0;
  error_ = nullptr;
  work_cv_.notify_all();
  DrainJob(lock);  // the caller participates instead of idling
  done_cv_.wait(lock, [this] { return completed_ == job_count_; });
  job_fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadBudget::ThreadBudget(size_t total_threads)
    : total_(ThreadPool::ResolveThreadCount(total_threads)) {}

size_t ThreadBudget::Reserve(size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t granted = std::min(count, total_ - in_use_);
  in_use_ += granted;
  if (in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  return granted;
}

ThreadBudget::Lease ThreadBudget::Acquire(size_t want) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t extras =
      want > 1 ? std::min(want - 1, total_ - in_use_) : 0;
  in_use_ += extras;
  if (in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  return Lease(this, 1 + extras);
}

size_t ThreadBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

size_t ThreadBudget::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_in_use_;
}

void ThreadBudget::ReleaseExtras(size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  in_use_ -= count;
}

ThreadBudget::Lease::Lease(Lease&& other) noexcept
    : budget_(other.budget_), count_(other.count_) {
  other.budget_ = nullptr;
  other.count_ = 1;
}

ThreadBudget::Lease::~Lease() {
  if (budget_ != nullptr && count_ > 1) budget_->ReleaseExtras(count_ - 1);
}

}  // namespace pnr
