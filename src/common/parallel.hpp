// Host parallelism: the one usable-core count behind every `auto` thread or
// shard default, and parallel_for for independent tasks (sweep points,
// scenario series). Each task owns its Network/Rng, so runs stay
// deterministic regardless of scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace sldf {

/// CPUs this process may run on: the size of its scheduler affinity set
/// where the platform reports one (containers and `taskset` narrow it below
/// the machine's count), else std::thread::hardware_concurrency(); at
/// least 1. The one core count behind every `auto` thread/shard default.
unsigned usable_cores();

/// Runs fn(i) for i in [0, n) on `threads` threads (0 = usable_cores(),
/// the calling thread included), handing out indices in ascending order,
/// and returns once all have finished. The first exception a task throws
/// propagates out of parallel_for after the rest have run.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sldf
