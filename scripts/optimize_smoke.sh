#!/usr/bin/env bash
# optimize_smoke.sh — CI smoke test for the /v1/optimize surface.
#
# Boots a fomodeld daemon and asserts the optimize contract end to end
# over real sockets: a small-budget search answers with a non-empty
# frontier while evaluating only a fraction of the grid, computes one
# analysis per mix workload and caches only its own response, the NDJSON
# stream carries point rows plus a trailer, the optimize metrics move,
# and `fomodel -optimize -json` run locally is byte-equal to the same
# spec served by the daemon (fetched both via -remote and via curl).
#
# Uses a small -n so the whole run stays in CI-seconds territory; byte
# equivalence does not depend on trace length.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${N:-20000}
bin=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

echo "== build" >&2
go build -o "$bin/fomodeld" ./cmd/fomodeld
go build -o "$bin/fomodel" ./cmd/fomodel

wait_ready() {
    for _ in $(seq 1 200); do
        if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "endpoint never became ready: $1" >&2
    return 1
}

echo "== boot daemon" >&2
"$bin/fomodeld" -addr 127.0.0.1:8795 -n "$N" -warm=false >"$bin/daemon.log" 2>&1 &
pids+=($!)
daemon=http://127.0.0.1:8795
wait_ready "$daemon"

# The spec pins n explicitly so the local CLI run and the daemon
# normalize to the same canonical search.
cat >"$bin/spec.json" <<EOF
{"workloads":[{"bench":"gzip"},{"bench":"mcf","weight":2}],"bounds":{"width":{"min":1,"max":8},"rob":{"min":64,"max":128,"step":64}},"budget":12,"n":$N}
EOF

echo "== buffered search: frontier non-empty, budget respected" >&2
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d @"$bin/spec.json" "$daemon/v1/optimize" >"$bin/daemon.json"
grep -A3 '"frontier"' "$bin/daemon.json" | grep -q '"eval"' \
    || { echo "frontier is empty" >&2; cat "$bin/daemon.json" >&2; exit 1; }
evals=$(sed -n 's/^  "evaluations": \([0-9]*\),*$/\1/p' "$bin/daemon.json")
grid=$(sed -n 's/^  "grid_size": \([0-9]*\),*$/\1/p' "$bin/daemon.json")
if [ -z "$evals" ] || [ "$evals" -gt 12 ]; then
    echo "evaluations '$evals' missing or over the 12-candidate budget" >&2
    exit 1
fi
echo "ok: $evals evaluations over a $grid-point grid, frontier non-empty" >&2

echo "== one analysis per workload, one response-cache entry" >&2
# The daemon booted cold, so the search alone filled its caches: one
# analysis per mix workload (not one per workload and ROB size), and one
# response-cache entry, its own (no predict entries that would flush
# other clients' hot sets).
curl -fsS "$daemon/metrics" >"$bin/metrics.txt"
for want in 'fomodeld_workload_analyses_total 2' 'fomodeld_response_cache_entries 1'; do
    grep -qx "$want" "$bin/metrics.txt" \
        || { echo "after one search on a cold daemon, want '$want':" >&2; grep -E '^fomodeld_(workload_analyses_total|response_cache_entries) ' "$bin/metrics.txt" >&2; exit 1; }
done
echo "ok: 2 analyses and 1 response-cache entry after the first search" >&2

echo "== local/remote byte-equality" >&2
"$bin/fomodel" -optimize "$bin/spec.json" -json -n "$N" >"$bin/local.json"
"$bin/fomodel" -optimize "$bin/spec.json" -json -n "$N" -remote "$daemon" >"$bin/remote.json"
cmp -s "$bin/local.json" "$bin/remote.json" \
    || { echo "BYTE MISMATCH: local vs -remote optimize output" >&2; diff "$bin/local.json" "$bin/remote.json" >&2 || true; exit 1; }
cmp -s "$bin/local.json" "$bin/daemon.json" \
    || { echo "BYTE MISMATCH: local CLI output vs raw daemon response" >&2; diff "$bin/local.json" "$bin/daemon.json" >&2 || true; exit 1; }
echo "ok: local CLI, -remote CLI, and raw daemon responses byte-equal" >&2

echo "== NDJSON stream: point rows plus a trailer" >&2
curl -fsS -X POST -H 'Content-Type: application/json' \
    -H 'Accept: application/x-ndjson' \
    -d @"$bin/spec.json" "$daemon/v1/optimize" >"$bin/stream.ndjson"
rows=$(wc -l <"$bin/stream.ndjson")
if [ "$rows" -lt 2 ]; then
    echo "stream has $rows rows, want points plus a trailer" >&2
    exit 1
fi
tail -n 1 "$bin/stream.ndjson" | grep -q '"render"' \
    || { echo "stream's final row is not a trailer" >&2; exit 1; }
echo "ok: $rows stream rows, trailer last" >&2

curl -fsS "$daemon/metrics" | grep -q '^fomodeld_optimize_evaluations_total [1-9]' \
    || { echo "optimize metrics missing or zero" >&2; exit 1; }
echo "optimize smoke passed" >&2
