// A small fixed-size thread pool for data-parallel loops.
//
// The pool is built for the induction engine's attribute-parallel scans:
// one blocking ParallelFor at a time, issued from one controlling thread,
// with the workers and the caller draining a shared index range. Results
// must be written to per-index slots; the caller then reduces them in a
// deterministic order, which is how parallel runs stay bit-identical to
// serial ones (see induction/condition_search.h).
//
// Nested fan-outs compose by one rule: while a thread runs a loop body (as
// a worker, or as the caller draining its own job), every ParallelFor it
// issues runs inline and every ThreadPool it constructs spawns no workers.
// So a one-vs-rest committee or a tuning race can hand its own thread
// count down to the learners it trains: the learners' searches run
// serially inside each task, and live workers never exceed the outermost
// pool's workers plus its caller.

#ifndef PNR_COMMON_THREAD_POOL_H_
#define PNR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pnr {

/// Fixed pool of worker threads executing indexed loop bodies.
///
/// Thread-safety contract: ParallelFor may not be called concurrently from
/// two threads outside a loop body (inside one it runs inline, see the
/// file comment). Loop bodies run concurrently and must only write state
/// disjoint per index.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 or 1 spawns none, and so does a pool
  /// constructed inside a loop body: every ParallelFor then runs inline on
  /// the calling thread (the degenerate serial pool).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Joins the workers.
  ~ThreadPool();

  /// Number of worker threads (0 for the serial pool).
  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(0) .. fn(count - 1), distributing indices over the workers and
  /// the calling thread; blocks until every index completed. Runs inline
  /// when the pool has no workers, when count is 1, or when the caller is
  /// itself inside a loop body. The first exception thrown by a body is
  /// rethrown here (remaining indices still run).
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Maps a user-facing thread-count knob to a concrete count: 0 means
  /// "auto" (hardware concurrency, at least 1); anything else is itself.
  static size_t ResolveThreadCount(size_t requested);

  /// Minimum rows of work each worker should receive before parallel
  /// fan-out pays for itself. Shared by the condition-search engine and the
  /// batch scorer: below the cutoff both run serially, so small inputs
  /// never pay pool wake-up and cache-contention overhead (the regime where
  /// BENCH_condition_search.json measured 2/8 threads slower than 1).
  static constexpr size_t kMinRowsPerThread = 16384;

  /// Threads actually worth using for `rows` rows of data-parallel work:
  /// ResolveThreadCount(requested) capped so every thread gets at least
  /// kMinRowsPerThread rows. Never returns 0; returning 1 means "run
  /// serial". Using the clamped count never changes results — every
  /// parallel loop here writes disjoint per-index slots.
  static size_t ClampThreadsForRows(size_t requested, size_t rows);

  /// Minimum bytes of raw input each worker should receive before chunked
  /// ingestion fans out. The ingest engine splits files into row-aligned
  /// chunks of at least this size; smaller inputs parse serially, where the
  /// structural pre-scan would otherwise dominate.
  static constexpr size_t kMinBytesPerThread = size_t{1} << 20;

  /// ClampThreadsForRows' byte-based counterpart for the ingest engine:
  /// ResolveThreadCount(requested) capped so every thread gets at least
  /// kMinBytesPerThread bytes of input. Never returns 0.
  static size_t ClampThreadsForBytes(size_t requested, size_t bytes);

 private:
  void WorkerLoop();
  /// Claims and runs indices of the current job while any remain. Must be
  /// entered with `lock` held; returns with it held.
  void DrainJob(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals workers: job posted/shutdown
  std::condition_variable done_cv_;  ///< signals the caller: job finished
  const std::function<void(size_t)>* job_fn_ = nullptr;  // non-null while a job runs
  size_t job_count_ = 0;
  size_t next_index_ = 0;
  size_t completed_ = 0;
  std::exception_ptr error_;
  bool shutdown_ = false;
};

/// Thread budget shared by the stream engine's scorers and its background
/// retrain.
///
/// The stream reserves its scoring threads up front with Reserve(), and
/// each retrain leases the width it may use through Acquire(). Leases
/// always grant at least 1 (the task's own thread, already covered by the
/// reservation) plus whatever unreserved capacity remains, so total live
/// workers never exceed the budget and no task can starve.
///
/// Determinism: the granted width varies with timing, but every engine in
/// this library produces bit-identical results at any thread count, so a
/// budget only ever changes speed — never bytes. Only sub-tasks whose
/// output is thread-count-invariant may size themselves from a lease.
class ThreadBudget {
 public:
  /// Creates a budget of `total_threads` concurrently live workers
  /// (0 = hardware concurrency).
  explicit ThreadBudget(size_t total_threads);

  /// Permanently sets aside `count` threads (the stream's scorers).
  /// Returns the number actually reserved — clamped to the remaining
  /// capacity, so callers can reserve `Reserve(desired)` and never
  /// overdraw.
  size_t Reserve(size_t count);

  /// A RAII lease of worker threads; releases its extras on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    /// Threads this task may run concurrently (>= 1): its own thread plus
    /// the granted extras. Pass as a learner's num_threads knob.
    size_t count() const { return count_; }

   private:
    friend class ThreadBudget;
    Lease(ThreadBudget* budget, size_t count)
        : budget_(budget), count_(count) {}
    ThreadBudget* budget_;
    size_t count_;
  };

  /// Leases up to `want` threads: 1 for the calling task itself (assumed
  /// covered by a prior Reserve) plus at most `want - 1` extras from the
  /// unleased remainder. Never blocks and never grants less than 1.
  Lease Acquire(size_t want);

  /// The budget's total capacity.
  size_t total() const { return total_; }

  /// Currently reserved + leased threads (test/diagnostic hook).
  size_t in_use() const;

  /// High-water mark of in_use() over the budget's lifetime. Lets tests
  /// assert a fan-out never exceeded its cap — the composition guarantee
  /// the budget exists to provide.
  size_t peak_in_use() const;

 private:
  void ReleaseExtras(size_t count);

  const size_t total_;
  mutable std::mutex mutex_;
  size_t in_use_ = 0;
  size_t peak_in_use_ = 0;
};

}  // namespace pnr

#endif  // PNR_COMMON_THREAD_POOL_H_
