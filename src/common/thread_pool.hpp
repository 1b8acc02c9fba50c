// A small fixed-size thread pool used to run independent simulation sweep
// points in parallel. Each task owns its Network/Rng, so runs stay
// deterministic regardless of scheduling. On single-core hosts the pool
// degrades to (almost) serial execution with no semantic change.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sldf {

/// CPUs this process may run on: the size of its scheduler affinity set
/// where the platform reports one (containers and `taskset` narrow it below
/// the machine's count), else std::thread::hardware_concurrency(); at
/// least 1. The one core count behind every `auto` thread/shard default.
unsigned usable_cores();

class ThreadPool {
 public:
  /// `threads == 0` selects usable_cores().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task);
  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Exceptions inside tasks propagate out of parallel_for (first one wins).
  static void parallel_for(std::size_t n, std::size_t threads,
                           const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace sldf
