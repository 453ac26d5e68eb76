#ifndef SHOAL_UTIL_THREAD_POOL_H_
#define SHOAL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shoal::util {

// Execution statistics a pool accumulates over its lifetime. Queue depth
// is the number of tasks waiting (excluding running ones); task seconds
// are wall-clock per task body. The counters cost two clock reads and a
// few arithmetic ops per task — tasks are chunk-sized (one per worker
// per ParallelFor), so this is noise next to the queue mutex itself.
// Consumers (Parallel HAC, entity-graph builder) bridge a snapshot into
// `obs::MetricsRegistry` gauges after each run; util deliberately does
// not depend on obs.
struct ThreadPoolStats {
  uint64_t tasks_executed = 0;
  size_t queue_depth = 0;       // at snapshot time
  size_t peak_queue_depth = 0;  // high-water mark since construction
  double total_task_seconds = 0.0;
  double max_task_seconds = 0.0;
};

// Fixed-size worker pool with a simple FIFO queue. Used by Parallel HAC
// and the entity-graph builder. Tasks must not throw.
class ThreadPool {
 public:
  // `num_threads` == 0 means "hardware concurrency, at least 1".
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // Work is divided into contiguous chunks, one per worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Runs fn(chunk_begin, chunk_end, worker_index) once per chunk.
  void ParallelForChunked(
      size_t n,
      const std::function<void(size_t, size_t, size_t)>& fn);

  // Consistent snapshot of the pool's execution statistics.
  ThreadPoolStats GetStats() const;

  // Total worker threads spawned by all pools in this process since
  // startup. Lets tests assert that a component given a borrowed pool
  // did not quietly construct its own.
  static uint64_t TotalThreadsCreated();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  // Guarded by mu_ (updated where the queue lock is already held).
  uint64_t tasks_executed_ = 0;
  size_t peak_queue_depth_ = 0;
  double total_task_seconds_ = 0.0;
  double max_task_seconds_ = 0.0;
};

}  // namespace shoal::util

#endif  // SHOAL_UTIL_THREAD_POOL_H_
