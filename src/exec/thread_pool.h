#ifndef PROXDET_EXEC_THREAD_POOL_H_
#define PROXDET_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace proxdet {

/// Fixed-size thread pool behind every parallel path in the library
/// (sweep fan-out, Kalman grid tuning, sigma calibration, ground-truth
/// scans). Deliberately simple: one shared FIFO queue, no work stealing —
/// the units we fan out (bench cells, grid cells, calibration queries,
/// pair chunks) are coarse enough that queue contention is irrelevant.
///
/// Determinism contract: the pool only *schedules*; every caller merges
/// results in slot order, so outputs are byte-identical for any thread
/// count (see ParallelFor below). A pool of size 1 spawns no workers at
/// all and ParallelFor degenerates to a plain loop.
class ThreadPool {
 public:
  /// `threads` is the target parallelism (including the calling thread
  /// when it participates via ParallelFor); `threads - 1` workers are
  /// spawned. 0 is treated as 1.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (>= 1).
  unsigned thread_count() const { return threads_; }

  /// Enqueues a task. Tasks must not block waiting for other queued tasks
  /// (ParallelFor's caller-participation design never needs to).
  ///
  /// Long-lived tasks: the Stripe resolve phase (RegionDetector, DESIGN.md
  /// §15) submits thread_count() - 1 build helpers that each hold a worker
  /// for the whole phase, spinning between speculation windows. A helper
  /// waits only on the phase's driver (the thread in Detector::Run), never
  /// on a queued task, and the driver never waits for a helper to start;
  /// so a phase cannot deadlock the pool even when Run() itself is a pool
  /// task, and every worker is free again shortly after Run() returns.
  void Submit(std::function<void()> task);

  /// Parallelism from the PROXDET_THREADS environment variable, falling
  /// back to std::thread::hardware_concurrency().
  static unsigned DefaultThreadCount();

  /// The process-wide pool, lazily created with DefaultThreadCount().
  static ThreadPool& Global();

  /// Rebuilds the global pool with `threads` workers. Test/tuning hook —
  /// must not be called while parallel work is in flight.
  static void SetGlobalThreads(unsigned threads);

 private:
  void WorkerLoop(unsigned worker_index);

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(0..n-1) across `pool`, the calling thread included. Indices are
/// claimed dynamically, so execution *order* varies between runs — callers
/// must write results into index-addressed slots (as ParallelMap does) and
/// merge in index order; under that discipline results are independent of
/// the thread count. Safe to call from inside a pool task (nested use):
/// the caller drains its own iteration space instead of blocking on the
/// queue, so saturation cannot deadlock. The first exception thrown by fn
/// is rethrown on the calling thread after the loop quiesces; remaining
/// unclaimed iterations are skipped.
void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// ParallelFor over the global pool.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// Chunked ParallelFor: partitions [0, n) into contiguous ranges of at most
/// `grain` indices and runs fn(begin, end) for each range. The per-iteration
/// std::function dispatch of plain ParallelFor is too heavy for fine-grained
/// work (a containment test per user, a distance per edge); here the lambda
/// runs a tight inner loop over its range instead. Chunk boundaries are a
/// pure function of (n, grain), so results written into index-addressed
/// slots stay independent of the thread count. grain == 0 is treated as 1.
void ParallelForChunked(ThreadPool& pool, size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& fn);

/// ParallelForChunked over the global pool.
void ParallelForChunked(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& fn);

/// Slot-ordered parallel map: out[i] = fn(i). The deterministic-merge
/// pattern most parallel paths in the library reduce to.
template <typename T>
std::vector<T> ParallelMap(ThreadPool& pool, size_t n,
                           const std::function<T(size_t)>& fn) {
  std::vector<T> out(n);
  ParallelFor(pool, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

template <typename T>
std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& fn) {
  return ParallelMap<T>(ThreadPool::Global(), n, fn);
}

}  // namespace proxdet

#endif  // PROXDET_EXEC_THREAD_POOL_H_
