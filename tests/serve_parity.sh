#!/bin/sh
# `sldf --serve` must report the sweep `sldf --out` writes for the same
# spec: every point's key=value cells equal the CSV header and row (point
# seeds and the early stop included), on the request that builds the
# network and on the one that reuses it from the cache.
#
#   sh tests/serve_parity.sh build/sldf OUT_DIR
set -eu
sldf=$1
dir=$2
mkdir -p "$dir"
keys="--topology=tiny-swless --rates=0.05,0.3,0.6,0.9 --warmup=200 --measure=500 --drain=300"
# 0.6 saturates past the early-stop rule, so 0.9 never runs. $keys is
# unquoted on purpose: it holds several flags.
"$sldf" $keys --out "$dir/sweep.csv" > /dev/null
printf 'label=scenario\nlabel=scenario\n' | "$sldf" --serve $keys | grep '^  series=' |
  awk '{
    names = ""; cells = ""
    for (i = 1; i <= NF; ++i) {
      eq = index($i, "=")
      names = names (i > 1 ? "," : "") substr($i, 1, eq - 1)
      cells = cells (i > 1 ? "," : "") substr($i, eq + 1)
    }
    if (NR == 1) print names
    print cells
  }' > "$dir/serve.csv"
{ cat "$dir/sweep.csv"; tail -n +2 "$dir/sweep.csv"; } > "$dir/expected.csv"
test "$(wc -l < "$dir/expected.csv")" -ge 5
diff "$dir/expected.csv" "$dir/serve.csv"
echo "serve parity: $(($(wc -l < "$dir/serve.csv") - 1)) points match"
