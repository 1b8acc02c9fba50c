#!/bin/sh
# Checks that README.md's generated scenario reference (the block between
# the `<!-- BEGIN/END GENERATED: sldf --doc-keys -->` markers) is exactly
# what `sldf --doc-keys` prints, so a registry or key change that leaves
# the README stale fails the test suite:
#
#   sh tests/docs_reference.sh build/sldf README.md
set -eu
sldf=$1
readme=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$sldf" --doc-keys > "$tmp/doc-keys.md"
awk '/<!-- BEGIN GENERATED: sldf --doc-keys -->/{f=1;next}
     /<!-- END GENERATED: sldf --doc-keys -->/{f=0} f' \
  "$readme" > "$tmp/readme-block.md"
if ! diff -u "$tmp/readme-block.md" "$tmp/doc-keys.md"; then
  echo "README scenario reference is stale: regenerate the GENERATED block" \
    "with sldf --doc-keys"
  exit 1
fi
echo "docs reference: current"
