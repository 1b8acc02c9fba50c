#!/bin/sh
# `sldf --serve` must report what `sldf --out` writes for the same spec:
# every row's key=value cells equal the CSV header and row, on the request
# that builds the network and on the one that reuses it from the cache.
# The default checks a rate sweep (point seeds and the early stop
# included); `workload` checks a closed-loop workload request.
#
#   sh tests/serve_parity.sh build/sldf OUT_DIR [sweep|workload]
set -eu
sldf=$1
dir=$2
kind=${3:-sweep}
mkdir -p "$dir"
if [ "$kind" = workload ]; then
  # The request line itself names the workload; the --out run passes the
  # same keys as flags.
  keys="--topology=tiny-swless"
  request="workload=all-to-all workload.kib=1"
  out_keys="--workload=all-to-all --workload.kib=1"
  min_lines=3 unit=rows
else
  # 0.6 saturates past the early-stop rule, so 0.9 never runs.
  keys="--topology=tiny-swless --rates=0.05,0.3,0.6,0.9 --warmup=200 --measure=500 --drain=300"
  request="label=scenario"
  out_keys=
  min_lines=5 unit=points
fi
# $keys and $out_keys are unquoted on purpose: they hold several flags.
"$sldf" $keys $out_keys --out "$dir/$kind.csv" > /dev/null
printf '%s\n%s\n' "$request" "$request" | "$sldf" --serve $keys | grep '^  series=' |
  awk '{
    names = ""; cells = ""
    for (i = 1; i <= NF; ++i) {
      eq = index($i, "=")
      names = names (i > 1 ? "," : "") substr($i, 1, eq - 1)
      cells = cells (i > 1 ? "," : "") substr($i, eq + 1)
    }
    if (NR == 1) print names
    print cells
  }' > "$dir/$kind-serve.csv"
{ cat "$dir/$kind.csv"; tail -n +2 "$dir/$kind.csv"; } > "$dir/$kind-expected.csv"
test "$(wc -l < "$dir/$kind-expected.csv")" -ge "$min_lines"
diff "$dir/$kind-expected.csv" "$dir/$kind-serve.csv"
echo "serve parity: $(($(wc -l < "$dir/$kind-serve.csv") - 1)) $unit match"
