#!/usr/bin/env bash
# proxy_smoke.sh — CI smoke test for the fomodelproxy serving fleet.
#
# Boots a reference fomodeld, a 2-replica fleet, and a fomodelproxy in
# front of it, then asserts the tentpole contract end to end over real
# sockets: every response through the proxy — /v1/predict, a
# shard-splitting /v1/batch, /v1/sweep buffered AND streamed NDJSON,
# /v1/workloads — is byte-equal to the reference daemon's. It then
# freezes one replica (SIGSTOP: it accepts connections but never
# answers) and verifies requests keep succeeding, because the probe that
# times out ejects it and the ejection fails its waiting requests over.
# Finally it kills one replica and verifies requests keep succeeding
# (failover to the ring successor), and tears everything down via the
# trap.
#
# Uses a small -n so the whole run stays in CI-seconds territory; byte
# equivalence does not depend on trace length.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${N:-20000}
bin=$(mktemp -d)
pids=()
cleanup() {
    # SIGCONT first: a stopped process would hold its SIGTERM pending.
    for pid in "${pids[@]:-}"; do kill -CONT "$pid" 2>/dev/null || true; done
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

echo "== build" >&2
go build -o "$bin/fomodeld" ./cmd/fomodeld
go build -o "$bin/fomodelproxy" ./cmd/fomodelproxy

wait_ready() {
    for _ in $(seq 1 200); do
        if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "endpoint never became ready: $1" >&2
    return 1
}

echo "== boot: reference daemon, 2 replicas, proxy" >&2
"$bin/fomodeld" -addr 127.0.0.1:8781 -n "$N" -warm=false >"$bin/ref.log" 2>&1 &
pids+=($!)
"$bin/fomodeld" -addr 127.0.0.1:8782 -n "$N" -warm=false >"$bin/rep1.log" 2>&1 &
rep1_pid=$!
pids+=($rep1_pid)
"$bin/fomodeld" -addr 127.0.0.1:8783 -n "$N" -warm=false >"$bin/rep2.log" 2>&1 &
rep2_pid=$!
pids+=($rep2_pid)
"$bin/fomodelproxy" -addr 127.0.0.1:8780 \
    -replicas http://127.0.0.1:8782,http://127.0.0.1:8783 \
    -n "$N" -probe-interval 500ms >"$bin/proxy.log" 2>&1 &
pids+=($!)
ref=http://127.0.0.1:8781
proxy=http://127.0.0.1:8780
wait_ready "$ref"
wait_ready http://127.0.0.1:8782
wait_ready http://127.0.0.1:8783
wait_ready "$proxy"

check_equal() {  # $1 label, $2 path, $3 body ("" = GET), $4 extra curl args
    local label=$1 path=$2 body=$3; shift 3
    if [ -n "$body" ]; then
        curl -fsS "$@" -X POST -H 'Content-Type: application/json' \
            -d "$body" "$ref$path" >"$bin/want"
        curl -fsS "$@" -X POST -H 'Content-Type: application/json' \
            -d "$body" "$proxy$path" >"$bin/got"
    else
        curl -fsS "$@" "$ref$path" >"$bin/want"
        curl -fsS "$@" "$proxy$path" >"$bin/got"
    fi
    if ! cmp -s "$bin/want" "$bin/got"; then
        echo "BYTE MISMATCH: $label" >&2
        diff "$bin/want" "$bin/got" >&2 || true
        exit 1
    fi
    echo "ok: $label byte-equal" >&2
}

predict='{"bench": "gzip", "machine": {"rob": 64}}'
batch='{"items": [{"bench": "gzip"}, {"bench": "gcc"}, {"bench": "mcf"}, {"bench": "vpr"}, {"bench": "gap"}, {"bench": "eon"}]}'
sweep='{"param": "rob", "benches": ["gzip", "gcc"], "values": [64, 128]}'

check_equal "predict (cold)" /v1/predict "$predict"
check_equal "predict (hot)" /v1/predict "$predict"
check_equal "batch (shard-split)" /v1/batch "$batch"
check_equal "sweep (buffered)" /v1/sweep "$sweep"
check_equal "sweep (NDJSON stream)" /v1/sweep "$sweep" -H 'Accept: application/x-ndjson'
check_equal "workloads" /v1/workloads ""

echo "== hung replica: freeze one replica, requests must keep succeeding" >&2
kill -STOP "$rep1_pid"
for i in $(seq 1 6); do
    curl -fsS --max-time 10 -X POST -H 'Content-Type: application/json' \
        -d "{\"bench\": \"gcc\", \"machine\": {\"rob\": $((32 * i + 32))}}" \
        "$proxy/v1/predict" >/dev/null
done
kill -CONT "$rep1_pid"
wait_ready http://127.0.0.1:8782
echo "ok: 6/6 requests served with a hung replica" >&2

echo "== failover: kill one replica, requests must keep succeeding" >&2
{ kill -9 "$rep2_pid" && wait "$rep2_pid"; } 2>/dev/null || true
for i in $(seq 1 6); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"bench\": \"gzip\", \"machine\": {\"rob\": $((32 * i + 32))}}" \
        "$proxy/v1/predict" >/dev/null
done
echo "ok: 6/6 requests served with a dead replica" >&2

# Fetch to a file first: grep -q exits at its first match, and under
# pipefail a curl still writing a multi-chunk body would fail the check.
curl -fsS "$proxy/metrics" >"$bin/metrics"
grep -q '^fomodelproxy_requests_total' "$bin/metrics" \
    || { echo "proxy /metrics missing counters" >&2; exit 1; }
echo "proxy smoke passed" >&2
