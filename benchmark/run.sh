#!/usr/bin/env bash
# Builds sldf-benchmark from this source tree (incrementally, under
# .bench_build/ at the repo root) and runs it with the given arguments.
# Build output goes to stderr so the benchmark's last stdout line stays its
# JSON summary.
#
#   bash benchmark/run.sh --workload sat-r16 --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build/sldf-benchmark
if [ ! -f "$build/Makefile" ]; then
  cmake -S benchmark -B "$build" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
exec "$build/sldf-benchmark" "$@"
