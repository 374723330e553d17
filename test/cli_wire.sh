#!/bin/sh
# The networked verbs end to end. A journaled primary `serve --listen`
# answers `client --ping`, `query`, `explain`, `client -w` and
# `replicate --once`. A `serve --follow` standby then mirrors it; the
# primary is stopped with SIGTERM, the standby promotes itself after
# --failover-after and serves a `query` that its replayed state decides.
# Temporary paths print as TMP; explain's `elapsed` line is dropped (it is
# a wall-clock figure). Every wait gives up after 10 s.
#
# Usage: cli_wire.sh DISCLOSURECTL CONFIG WORKLOAD
set -u
bin=$1 conf=$2 workload=$3
d=$(mktemp -d)
primary='' standby=''
cleanup() {
  for p in $primary $standby; do kill -KILL "$p" 2>/dev/null; done
  rm -rf "$d"
}
trap cleanup EXIT

# until_ok WHAT CMD...: run CMD every 0.1 s until it succeeds, at most 10 s.
until_ok() {
  what=$1
  shift
  i=0
  until "$@" 2> /dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      echo "cli_wire.sh: timed out waiting for $what" >&2
      exit 1
    fi
    sleep 0.1
  done
}

mirrored() {
  cmp -s "$d/p.shard0" "$d/m.shard0" && cmp -s "$d/p.shard1" "$d/m.shard1"
}

tmp() { sed "s|$d/|TMP/|g"; }

"$bin" serve -c "$conf" --domains 2 -j "$d/p" --listen "unix:$d/p.sock" \
  > "$d/p.out" 2> "$d/p.err" &
primary=$!
until_ok "the primary to listen" grep -q '^listening on' "$d/p.out"
"$bin" client --connect "unix:$d/p.sock" --ping
"$bin" query --connect "unix:$d/p.sock" -p calendar-app 'Q(x) :- Meetings(x, y)'
"$bin" explain --connect "unix:$d/p.sock" -p crm-app \
  'Q(x, y) :- Contacts(x, y)' 'Q(x) :- Meetings(x, y)' | grep -v '^elapsed'
"$bin" client --connect "unix:$d/p.sock" -w "$workload"
"$bin" replicate -c "$conf" --connect "unix:$d/p.sock" -j "$d/r" --once

"$bin" serve -c "$conf" --domains 2 -j "$d/m" --follow "unix:$d/p.sock" \
  --failover-after 0.5 --listen "unix:$d/s.sock" > "$d/s.out" 2> "$d/s.err" &
standby=$!
until_ok "the standby to mirror the primary" mirrored
kill -TERM "$primary"
wait "$primary"
echo "primary exit $?"
primary=''
tmp < "$d/p.out"
until_ok "the standby to promote" grep -q '^listening on' "$d/s.out"
tmp < "$d/s.out"
"$bin" query --connect "unix:$d/s.sock" -p calendar-app \
  'Q(x, y) :- Meetings(x, y)' 'Q(x, y) :- Contacts(x, y)'
kill -TERM "$standby"
wait "$standby"
echo "standby exit $?"
standby=''
