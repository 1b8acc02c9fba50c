#!/bin/sh
# Runs one tiny point of every scenario config, so a config that no longer
# resolves (a renamed key, topology or option) fails the test suite. Each
# configs/*.conf runs one low-load point with a 100-cycle window; a
# config's own "# smoke: FLAGS" line adds the overrides that shrink it
# further (fewer W-groups, smaller payloads). Run it from the source
# directory, where the configs' relative trace.file paths resolve:
#
#   sh tests/configs_smoke.sh build/sldf
set -eu
sldf=$1
for conf in configs/*.conf; do
  smoke=$(sed -n 's/^# smoke: //p' "$conf")
  echo "$conf $smoke"
  # $smoke is unquoted on purpose: it holds several flags.
  "$sldf" --config "$conf" --warmup=0 --measure=100 --drain=100 --rates=0.05 \
    $smoke > /dev/null
done
