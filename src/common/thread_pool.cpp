#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sldf {

unsigned usable_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cores();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) threads = usable_cores();
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads, n));
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error = nullptr;
  std::mutex err_mu;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sldf
