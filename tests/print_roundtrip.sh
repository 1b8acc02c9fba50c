#!/bin/sh
# Checks that every configs/*.conf and configs/bench/*.conf is a fixed
# point of `sldf --print`: reparsing the printed spec and printing it again
# gives the same text, so no key prints a value its parser rejects or reads
# back differently. Run it from the source directory:
#
#   sh tests/print_roundtrip.sh build/sldf
set -eu
sldf=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
n=0
for conf in configs/*.conf configs/bench/*.conf; do
  "$sldf" --config "$conf" --print > "$tmp/print1.conf"
  "$sldf" --config "$tmp/print1.conf" --print > "$tmp/print2.conf"
  if ! diff -u "$tmp/print1.conf" "$tmp/print2.conf"; then
    echo "$conf does not round-trip through sldf --print"
    exit 1
  fi
  n=$((n + 1))
done
echo "print round-trip: $n configs"
