#!/bin/sh
# `serve` over a workload file on two shards with a journal that rotates
# and checkpoints, then the byte size of every journal file it left, then
# the `audit` ledger over that server journal base (both shard families).
# The journal lives in a fresh temporary directory, so no file from an
# earlier run is listed.
#
# Usage: cli_serve.sh DISCLOSURECTL CONFIG WORKLOAD
set -eu
bin=$1 conf=$2 workload=$3
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

"$bin" serve -c "$conf" -w "$workload" --domains 2 -j "$d/j" \
  --checkpoint-every 2 --segment-bytes 64
echo
for f in "$d"/j.shard*; do
  printf '%s %s\n' "${f##*/}" "$(wc -c < "$f" | tr -d ' ')"
done
echo
"$bin" audit -c "$conf" "$d/j" | sed "s|$d/|TMP/|g"
