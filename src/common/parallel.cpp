#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

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

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = usable_cores();
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex err_mu;
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> team;
    team.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) team.emplace_back(work);
    work();
  }  // the jthreads join here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sldf
