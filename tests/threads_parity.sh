#!/bin/sh
# `sldf --threads N` runs every simulation of a run (sweep points, workload
# runs, tenant runs) in one pool of N workers; what a run reports must not
# depend on N. Two inputs run at --threads 1, 2 and auto, and each run's
# --out CSV and `totals` counters (wall time and RSS left out) must match:
# a two-series tiny-swless sweep whose 0.6 point passes the early stop, so
# 0.9 is cut from both series at every N, and the Fig 14 closed-loop
# workloads at 4 KiB. A negative or non-numeric count is rejected.
#
#   sh tests/threads_parity.sh build/sldf SOURCE_DIR OUT_DIR
set -eu
sldf=$1
src=$2
dir=$3
mkdir -p "$dir"
printf '%s\n' "topology = tiny-swless" "rates = 0.05,0.3,0.6,0.9" \
  "warmup = 500" "measure = 1000" "drain = 500" \
  "[series a]" "[series b]" "seed = 2" > "$dir/sweep.conf"
for input in sweep fig14; do
  if [ "$input" = sweep ]; then
    args="--config $dir/sweep.conf"
  else
    args="--config $src/configs/fig14.conf --workload.kib=4"
  fi
  for t in 1 2 auto; do
    # $args is unquoted on purpose: it holds several flags.
    "$sldf" $args --threads "$t" --out "$dir/$input-$t.csv" > "$dir/$input-$t.log"
    sed -n 's/^\(totals points=.* delivered=[0-9]*\) .*/\1/p' \
      "$dir/$input-$t.log" > "$dir/$input-$t.totals"
    test -s "$dir/$input-$t.totals"
  done
  for t in 2 auto; do
    diff "$dir/$input-1.csv" "$dir/$input-$t.csv"
    diff "$dir/$input-1.totals" "$dir/$input-$t.totals"
  done
done
# Three points a series: 0.9 is past the stop.
test "$(wc -l < "$dir/sweep-1.csv")" -eq 7
for bad in -1 many; do
  if "$sldf" --topology=tiny-swless --rates=0.05 --threads="$bad" \
      > /dev/null 2>&1; then
    echo "--threads=$bad was accepted"
    exit 1
  fi
done
echo "threads parity: $(cat "$dir/sweep-1.totals"); $(cat "$dir/fig14-1.totals")"
