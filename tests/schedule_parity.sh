#!/bin/sh
# A `fault.schedule` file runs the same timeline as `fault.events`: the
# same v2 schedule, written to a file, must print the same sweep rows and
# `totals` counters as its events given inline.
#
#   sh tests/schedule_parity.sh build/sldf OUT_DIR
set -eu
sldf=$1
dir=$2
mkdir -p "$dir"
keys="--topology=tiny-swless --rates=0.05,0.2 --warmup=100 --measure=300 --drain=400 --fault.seed=5"
events="fail@150:local=0.2;fail@150:chip2;repair@300:local=0.1;repair@450:chip2;repair@500:local=0"
cat > "$dir/timeline.sched" <<'SCHED'
sldf-faults 2
# cables and a chip fail together, then heal in two waves
fail@150:local=0.2; fail@150:chip2
repair@300:local=0.1

repair@450:chip2   # the chip first
repair@500:local=0
SCHED
# Drop the wall time and RSS, which differ run to run. $keys is unquoted
# on purpose: it holds several flags.
"$sldf" $keys --fault.events="$events" | sed 's/ wall_s=.*//' > "$dir/events.out"
"$sldf" $keys --fault.schedule="$dir/timeline.sched" | sed 's/ wall_s=.*//' > "$dir/schedule.out"
grep -q '^totals ' "$dir/events.out"
diff "$dir/events.out" "$dir/schedule.out"
echo "schedule parity: $(grep -c '^0\.' "$dir/schedule.out") rows match"
