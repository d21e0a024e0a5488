#!/usr/bin/env bash
# traffic.sh — which engine code the benchmark's workloads actually execute.
#
# Builds ./benchmark with statement coverage, runs every workload named in
# BENCHMARK.json for a few seconds under its own GOCOVERDIR, and prints
#   (a) the functions of internal/dbm, internal/ta and internal/core that no
#       workload executed, and
#   (b) for every data-dependent fork left on the zone path (the census in
#       the internal/dbm package comment, on core's succCtx and in core's
#       store comment), how often each workload took it (0 = never).
# It is a report, not a gate: it fails only when a workload fails or a fork's
# anchor no longer resolves to a line of the source (which internal/rules
# checks in tier-1, without running anything). Everything it writes goes
# to a temporary directory. Used by the CI bench-smoke job and runnable
# locally:
#
#   scripts/traffic.sh [seconds per workload, default 3]
#
# Requires: go, jq, awk.
set -euo pipefail
cd "$(dirname "$0")/.."
seconds=${1:-3}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# -coverpkg=./..., not ./internal/...: with the narrower pattern the binary
# wrote no counter files on go1.24.0.
go build -cover -covermode=count -coverpkg=./... -o "$tmp/benchmark" ./benchmark

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
dirs=""
for w in $workloads; do
  mkdir "$tmp/$w"
  echo "== $w (${seconds}s)" >&2
  (cd "$tmp" && GOCOVERDIR="$tmp/$w" ./benchmark --workload "$w" --seed 1 --seconds "$seconds" --trace 0 >"$tmp/$w.log" 2>&1) ||
    { echo "workload $w failed:" >&2; tail -n 20 "$tmp/$w.log" >&2; exit 1; }
  go tool covdata textfmt -i="$tmp/$w" -o "$tmp/$w.cov"
  dirs="$dirs${dirs:+,}$tmp/$w"
done
go tool covdata textfmt -i="$dirs" -o "$tmp/all.cov"

echo "== functions of internal/{dbm,ta,core} no workload executed"
go tool cover -func="$tmp/all.cov" |
  awk '$1 ~ /\/internal\/(dbm|ta|core)\/[^\/]*:/ && $NF == "0.0%" { sub(/^.*\/internal\//, "internal/", $1); print "  " $1 " " $2 }'

# A fork is named by the first line containing `stmt` after the first line
# containing `fn` in `file` — a statement inside the branch in question — so
# the table survives edits elsewhere in the file. Fields are separated by '|'
# and matched as plain text. The three "admit:" rows split a workload's
# transitions: a successor is subsumed on its raw zone, before any
# extrapolation, or it is admitted and widened — the only Extrapolate calls of
# a sweep, so unchanged + changed = admissions. (The unchanged row is anchored
# inside dbm.Extrapolate, which trace replay also calls, once per step.)
forks='CloseRows sparse path|internal/dbm/dbm.go|func (d *DBM) CloseRows(|m := d.m
CloseRows dense fallback to Close|internal/dbm/dbm.go|func (d *DBM) CloseRows(|return d.Close()
DelayUnder calls|internal/dbm/upper.go|func (d *DBM) DelayUnder(|r0 := m[:n]
DelayUnder delay (rows rebounded)|internal/dbm/upper.go|func (d *DBM) DelayUnder(|rp[0] = u
DelayUnder no delay|internal/dbm/upper.go|func (d *DBM) DelayUnder(|bites := false
DelayUnder no delay, already holds|internal/dbm/upper.go|func (d *DBM) DelayUnder(|return true
DelayUnder row tightened|internal/dbm/upper.go|func (d *DBM) DelayUnder(|for q, r0q := range r0
DelayUnder emptied|internal/dbm/upper.go|func (d *DBM) DelayUnder(|return false
EncodeCompact 16-bit|internal/dbm/compact.go|func EncodeCompact(|width = 2
EncodeCompact 32-bit|internal/dbm/compact.go|func EncodeCompact(|width = 4
EncodeCompact 64-bit|internal/dbm/compact.go|func EncodeCompact(|storeRows[Bound](c, d)
EncodeCompact row omitted|internal/dbm/compact.go|func EncodeCompact(|kept--
DecodeInto 16-bit|internal/dbm/compact.go|func (c Compact) DecodeInto(|widenRows[int16](c, d)
DecodeInto 32-bit|internal/dbm/compact.go|func (c Compact) DecodeInto(|widenRows[int32](c, d)
DecodeInto 64-bit|internal/dbm/compact.go|func (c Compact) DecodeInto(|widenRows[Bound](c, d)
DecodeInto row omitted|internal/dbm/compact.go|func widenRows[|m[r] = LEZero
ContainsDBM row omitted|internal/dbm/compact.go|func containsRows[|r++
SubsetEqDBM row omitted|internal/dbm/compact.go|func withinRows[|range d.m[r*dim : (r+1)*dim]
SubsetEqDBM row omitted, d bounded|internal/dbm/compact.go|func withinRows[|return false // packed Infinity exceeds
admit: subsumed on the raw zone|internal/core/store.go|func (e *storeEntry) admit(|return 0, 0, nil
admit: widened, unchanged|internal/dbm/extrapolation.go|func (d *DBM) Extrapolate(|return false
admit: widened, changed|internal/core/store.go|func (e *storeEntry) admit(|sig = dbm.SignatureOf(zone)
prune recycles a payload at once|internal/core/store.go|func (e *storeEntry) admit(|pool.Put(r.z)
prune orphans a waiting payload|internal/core/store.go|func (e *storeEntry) admit(|SetHolder(orphaned)
release recycles an orphan at pop|internal/core/store.go|func (st *store) release(|st.cpool.Put(c)
binary rendezvous|internal/core/succ.go|func (e *engine) successors(|append(ctx.parts[:0], emp, rcp)
urgentPairEnabled|internal/core/succ.go|func (e *engine) urgentPairEnabled(|emitSeen, emitMany := false, false'

echo "== fork census: executions per workload (0 = never taken)"
printf '  %-34s' fork
for w in $workloads; do printf ' %12s' "$w"; done
echo
while IFS='|' read -r name file fn stmt; do
  line=$(awk -v fn="$fn" -v stmt="$stmt" '!seen && index($0, fn) { seen = 1 } seen && index($0, stmt) { print NR; exit }' "$file")
  [ -n "$line" ] || { echo "fork '$name': no line of $file matches its anchor" >&2; exit 1; }
  printf '  %-34s' "$name"
  for w in $workloads; do
    # Profile lines read `<import path>:<l0>.<c0>,<l1>.<c1> <statements> <count>`;
    # coverage blocks do not overlap, so at most one spans the anchor line.
    awk -v file="/$file:" -v line="$line" 'index($1, file) {
        split(substr($1, index($1, file) + length(file)), r, /[.,]/)
        if (r[1] + 0 <= line && line <= r[3] + 0 && $3 > n) n = $3
      } END { printf " %12d", n }' "$tmp/$w.cov"
  done
  echo
done <<<"$forks"
