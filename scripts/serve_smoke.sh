#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the taserved analysis service.
#
# Builds taserved, boots it on a kernel-assigned port, drives the full job
# lifecycle with the typed Go client (scripts/servesmoke: healthz, arch
# submit → wait → result, result-cache hit on resubmission, a combined ta
# query set, metrics), then checks a graceful SIGTERM shutdown (must exit 0
# after draining). Used by the CI serve-smoke job and runnable locally:
#
#   scripts/serve_smoke.sh
#
# Requires: go.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
trap '[ -n "${pid:-}" ] && kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/taserved" ./cmd/taserved

log="$workdir/serve.log"
"$workdir/taserved" -addr 127.0.0.1:0 >"$log" 2>&1 &
pid=$!

url=""
for _ in $(seq 1 100); do
  url=$(sed -n 's/^taserved: listening on //p' "$log" | head -n 1)
  [ -n "$url" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "taserved died during startup:"; cat "$log"; exit 1; }
  sleep 0.1
done
[ -n "$url" ] || { echo "taserved did not report its address:"; cat "$log"; exit 1; }
echo "== taserved at $url"

go run ./scripts/servesmoke -url "$url"

echo "== graceful shutdown"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "taserved exited $rc on SIGTERM:"; cat "$log"; exit 1; }
grep -q 'drained, bye' "$log"

echo "serve shutdown OK"
