// Fixed-size worker pool for sharding campaign work across cores.
//
// The campaign engine dispatches one unit per program; each unit is
// deterministic on its own (RandomEngine::fork streams), so a pool of
// workers can execute units in any order while the caller aggregates results
// in program order. The pool is deliberately minimal: FIFO queue, blocking
// submit-side never, shutdown on destruction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ompfuzz {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is promoted to 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding jobs, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a job. Jobs must not throw out of the callable; wrap work that
  /// can throw (parallel_for does this for you).
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) ... fn(n-1) across the pool and blocks until all calls finish.
/// The first exception thrown by any fn(i) is rethrown on the calling thread
/// (remaining iterations still run to completion).
void parallel_for(ThreadPool& pool, int n, const std::function<void(int)>& fn);

}  // namespace ompfuzz
