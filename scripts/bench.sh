#!/usr/bin/env bash
# bench.sh — run the suite's benchmarks and record ns/op + allocs/op.
#
# Usage: scripts/bench.sh [output.json]   # library/experiment benchmarks
#        scripts/bench.sh server [output] # fomodeld load benchmark
#        scripts/bench.sh proxy [output]  # fomodelproxy multi-process benchmark
#        scripts/bench.sh optimize [out]  # /v1/optimize search benchmark
#
# Library mode runs two stages: a -benchtime=1x smoke pass over every
# benchmark in the repo (so a broken benchmark fails fast without a long
# timed run), then timed passes over the experiment-level acceptance
# benchmarks and the simulator/analyzer micro-benchmarks. Results land
# in BENCH_PR2.json (or the given path) keyed by benchmark name, with
# the pre-PR-2 baseline and computed speedups for the two acceptance
# benchmarks.
#
# Server mode drives the fomodeld handler chain end to end — cache-hot
# and cache-cold /v1/predict, the cold-start-after-warm path (a fresh
# server per request on a warm artifact store), plus a 12-cell /v1/sweep
# at 1 worker and at GOMAXPROCS workers — and records req/sec and the
# cold/hot ratios in BENCH_PR6.json.
#
# Optimize mode is the PR-9 benchmark: a real fomodeld evaluates the
# convex width × window search the optimize tests pin, and the report
# records how many model evaluations the guided search spent against the
# naive full-grid count, plus the evaluation-level predict-cache hit
# rate when a second search covers the same lattice. It then re-measures
# the sweep parallel speedup and the proxied fleet throughput at the
# host's GOMAXPROCS, so the PR-9 numbers carry their own cpus/gomaxprocs
# provenance instead of pointing at older bench files.
#
# Proxy mode is the PR-7 benchmark: real OS processes (3 fomodeld
# replicas, one fomodelproxy, the fomodelload generator) on loopback.
# The replicas run deliberately small response caches (16 entries)
# against a 24-key working set, so the cache-locality effect of
# consistent-hash routing is measured directly: the sharded fleet's
# partitions fit their caches while round-robin cycles every key
# through every replica and thrashes. Phases: single-daemon hot
# ceiling, hash-routed fleet, round-robin fleet, and a kill-one-replica
# failover run that must lose zero requests and re-admit the replica
# after /readyz turns healthy. Every bench JSON records gomaxprocs and
# cpus so a single-CPU result can never masquerade as a scaling one.
set -euo pipefail
cd "$(dirname "$0")/.."

gomaxprocs=${GOMAXPROCS:-$(nproc)}

if [ "${1:-}" = "optimize" ]; then
    out=${2:-BENCH_PR9.json}
    n=${N:-20000}
    dur=${DUR:-3s}
    conc=${CONC:-6}

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
    go build -o "$bin/fomodelproxy" ./cmd/fomodelproxy
    go build -o "$bin/fomodelload" ./cmd/fomodelload

    wait_ready() {
        for _ in $(seq 1 200); do
            if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
            sleep 0.1
        done
        echo "endpoint never became ready: $1" >&2
        return 1
    }
    jget() { sed -n "s/^  \"$2\": \([0-9.]*\),*$/\1/p" "$1"; }
    mget() { curl -fsS "$2/metrics" | sed -n "s/^$1 //p"; }

    echo "== boot daemon" >&2
    "$bin/fomodeld" -addr 127.0.0.1:8796 -n "$n" -warm=false >"$bin/daemon.log" 2>&1 &
    pids+=($!)
    daemon=http://127.0.0.1:8796
    wait_ready "$daemon"

    # The convex search space the acceptance test pins: 16 widths x 16
    # window sizes (rob fixed at 256 so every lattice point is valid),
    # naive grid = 256 candidates. A full budget lets the search stop on
    # its own convergence, so evaluations/grid_size is the honest
    # guided-vs-naive ratio.
    spec='{"workloads":[{"bench":"gzip"}],"bounds":{"width":{"min":1,"max":16},"window":{"min":8,"max":128,"step":8},"rob":{"min":256,"max":256}},"budget":256,"n":'$n'}'

    echo "== phase 1: guided search vs naive grid" >&2
    t0=$(date +%s.%N)
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" \
        "$daemon/v1/optimize" >"$bin/opt1.json"
    t1=$(date +%s.%N)
    evals=$(jget "$bin/opt1.json" evaluations)
    grid=$(jget "$bin/opt1.json" grid_size)
    rounds=$(jget "$bin/opt1.json" rounds)
    e1=$(mget fomodeld_optimize_evaluations_total "$daemon")
    h1=$(mget fomodeld_optimize_evaluation_cache_hits_total "$daemon")

    echo "== phase 2: second search over the same lattice (cache-hot)" >&2
    # A different budget spells a different response-cache key, so the
    # search itself re-runs — but every candidate x workload evaluation
    # should land in the predict response cache the first search warmed.
    spec2=${spec/\"budget\":256/\"budget\":255}
    t2=$(date +%s.%N)
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec2" \
        "$daemon/v1/optimize" >"$bin/opt2.json"
    t3=$(date +%s.%N)
    e2=$(mget fomodeld_optimize_evaluations_total "$daemon")
    h2=$(mget fomodeld_optimize_evaluation_cache_hits_total "$daemon")
    stop_bench_daemon() {
        for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
        wait 2>/dev/null || true
        pids=()
    }
    stop_bench_daemon

    echo "== phase 3: sweep parallelism at GOMAXPROCS=$gomaxprocs" >&2
    go test -run '^$' -bench 'BenchmarkSweepWorkers1$|BenchmarkSweepWorkersN$' \
        -benchtime=20x ./internal/server/ >"$bin/sweep.txt"
    sweep1=$(awk '/BenchmarkSweepWorkers1/ {print $3}' "$bin/sweep.txt")
    sweepN=$(awk '/BenchmarkSweepWorkersN/ {print $3}' "$bin/sweep.txt")

    echo "== phase 4: proxied fleet throughput at GOMAXPROCS=$gomaxprocs" >&2
    for port in 8797 8798; do
        "$bin/fomodeld" -addr "127.0.0.1:$port" -n "$n" -max-inflight 64 \
            -warm=false >"$bin/replica-$port.log" 2>&1 &
        pids+=($!)
    done
    for port in 8797 8798; do wait_ready "http://127.0.0.1:$port"; done
    "$bin/fomodelproxy" -addr 127.0.0.1:8790 \
        -replicas http://127.0.0.1:8797,http://127.0.0.1:8798 \
        -route hash >"$bin/proxy.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8790
    "$bin/fomodelload" -url http://127.0.0.1:8790 -duration "$dur" \
        -concurrency "$conc" -benches 8 -robs 128,160,192 >"$bin/load.json"
    stop_bench_daemon
    proxy_rps=$(jget "$bin/load.json" req_per_sec)
    proxy_hit=$(jget "$bin/load.json" hit_rate)

    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$(nproc)" \
        -v gmp="$gomaxprocs" -v n="$n" \
        -v evals="$evals" -v grid="$grid" -v rounds="$rounds" \
        -v cold="$(echo "$t1 $t0" | awk '{print $1-$2}')" \
        -v warm="$(echo "$t3 $t2" | awk '{print $1-$2}')" \
        -v e1="$e1" -v h1="$h1" -v e2="$e2" -v h2="$h2" \
        -v s1="$sweep1" -v sN="$sweepN" \
        -v prps="$proxy_rps" -v phit="$proxy_hit" \
        'BEGIN {
        printf "{\n"
        printf "  \"generated\": \"%s\",\n", date
        printf "  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n  \"n\": %d,\n", procs, gmp, n
        printf "  \"optimize\": {\n"
        printf "    \"search\": \"convex width 1..16 x window 8..128/8, rob 256\",\n"
        printf "    \"naive_grid_evaluations\": %d,\n", grid
        printf "    \"guided_evaluations\": %d,\n", evals
        printf "    \"evaluation_fraction\": %.3f,\n", evals / grid
        printf "    \"refinement_rounds\": %d,\n", rounds
        printf "    \"cold_search_seconds\": %.2f,\n", cold
        printf "    \"cache_hot_search_seconds\": %.2f,\n", warm
        printf "    \"first_run_eval_cache_hit_rate\": %.3f,\n", (e1 > 0 ? h1 / e1 : 0)
        printf "    \"repeat_run_eval_cache_hit_rate\": %.3f\n", ((e2 - e1) > 0 ? (h2 - h1) / (e2 - e1) : 0)
        printf "  },\n"
        printf "  \"sweep_12_cells\": {\n"
        printf "    \"workers_1\": {\"ns_per_req\": %d},\n", s1
        printf "    \"workers_n\": {\"ns_per_req\": %d},\n", sN
        printf "    \"parallel_speedup\": %.2f\n  },\n", s1 / sN
        printf "  \"proxy_hash_2_replicas\": {\"req_per_sec\": %.0f, \"hit_rate\": %.3f}\n", prps, phit
        printf "}\n"
    }' > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "proxy" ]; then
    out=${2:-BENCH_PR7.json}
    dur=${DUR:-5s}
    conc=${CONC:-6}
    benches=8
    robs=128,160,192       # 8 benches x 3 ROBs = 24 keys
    cache=16               # per-replica response cache < keyset, > keyset/3

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
    go build -o "$bin/fomodelproxy" ./cmd/fomodelproxy
    go build -o "$bin/fomodelload" ./cmd/fomodelload

    wait_ready() {
        for _ in $(seq 1 200); do
            if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
            sleep 0.1
        done
        echo "endpoint never became ready: $1" >&2
        return 1
    }
    # jget file key -> bare value from fomodelload's flat JSON report
    jget() { sed -n "s/^  \"$2\": \(.*\)/\1/p" "$1" | tr -d ', "'; }

    start_replicas() {  # $1 = cache entries
        for port in 8791 8792 8793; do
            "$bin/fomodeld" -addr "127.0.0.1:$port" -cache "$1" \
                -analysis-cache "$1" -max-inflight 64 -warm=false \
                >"$bin/replica-$port.log" 2>&1 &
            pids+=($!)
        done
        for port in 8791 8792 8793; do wait_ready "http://127.0.0.1:$port"; done
    }
    stop_all() {
        for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
        wait 2>/dev/null || true
        pids=()
    }
    replicas_flag="-replicas http://127.0.0.1:8791,http://127.0.0.1:8792,http://127.0.0.1:8793"

    echo "== phase 1: single-daemon cache-hot ceiling" >&2
    "$bin/fomodeld" -addr 127.0.0.1:8791 -max-inflight 64 -warm=false \
        >"$bin/single.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8791
    "$bin/fomodelload" -url http://127.0.0.1:8791 -duration "$dur" \
        -concurrency "$conc" -benches $benches -robs $robs >"$bin/single.json"
    stop_all

    echo "== phase 2: hash-routed fleet, constrained caches" >&2
    start_replicas $cache
    "$bin/fomodelproxy" -addr 127.0.0.1:8790 $replicas_flag \
        -route hash >"$bin/proxy-hash.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8790
    "$bin/fomodelload" -url http://127.0.0.1:8790 -duration "$dur" \
        -concurrency "$conc" -benches $benches -robs $robs >"$bin/hash.json"
    stop_all

    echo "== phase 3: round-robin fleet, constrained caches" >&2
    start_replicas $cache
    "$bin/fomodelproxy" -addr 127.0.0.1:8790 $replicas_flag \
        -route roundrobin >"$bin/proxy-rr.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8790
    "$bin/fomodelload" -url http://127.0.0.1:8790 -duration "$dur" \
        -concurrency "$conc" -benches $benches -robs $robs >"$bin/rr.json"
    stop_all

    echo "== phase 4: kill-one-replica failover under load" >&2
    start_replicas $cache
    victim_pid=${pids[2]}      # replica on :8793
    "$bin/fomodelproxy" -addr 127.0.0.1:8790 $replicas_flag \
        -route hash -probe-interval 500ms -eject-after 2 \
        >"$bin/proxy-kill.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8790
    "$bin/fomodelload" -url http://127.0.0.1:8790 -duration 8s \
        -concurrency "$conc" -benches $benches -robs $robs >"$bin/kill.json" &
    load_pid=$!
    sleep 2
    kill -9 "$victim_pid" 2>/dev/null || true
    wait "$load_pid"
    # Revive the victim on the same port; the probe loop must re-admit it.
    "$bin/fomodeld" -addr 127.0.0.1:8793 -cache $cache -analysis-cache $cache \
        -max-inflight 64 -warm=false >"$bin/replica-8793b.log" 2>&1 &
    pids+=($!)
    wait_ready http://127.0.0.1:8793
    sleep 2
    healthy=$(curl -fsS http://127.0.0.1:8790/healthz | grep -o '"healthy":true' | wc -l)
    stop_all

    single_rps=$(jget "$bin/single.json" req_per_sec)
    single_hit=$(jget "$bin/single.json" hit_rate)
    hash_rps=$(jget "$bin/hash.json" req_per_sec)
    hash_hit=$(jget "$bin/hash.json" hit_rate)
    hash_err=$(jget "$bin/hash.json" errors)
    rr_rps=$(jget "$bin/rr.json" req_per_sec)
    rr_hit=$(jget "$bin/rr.json" hit_rate)
    kill_req=$(jget "$bin/kill.json" requests)
    kill_err=$(jget "$bin/kill.json" errors)

    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$(nproc)" \
        -v gmp="$gomaxprocs" -v dur="$dur" -v conc="$conc" -v cache="$cache" \
        -v srps="$single_rps" -v shit="$single_hit" \
        -v hrps="$hash_rps" -v hhit="$hash_hit" -v herr="$hash_err" \
        -v rrps="$rr_rps" -v rhit="$rr_hit" \
        -v kreq="$kill_req" -v kerr="$kill_err" -v healthy="$healthy" \
        'BEGIN {
        printf "{\n"
        printf "  \"generated\": \"%s\",\n", date
        printf "  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n", procs, gmp
        printf "  \"workload\": {\"keys\": 24, \"replica_cache_entries\": %d, \"duration\": \"%s\", \"concurrency\": %d},\n", cache, dur, conc
        printf "  \"single_daemon_hot\": {\"req_per_sec\": %.0f, \"hit_rate\": %.3f},\n", srps, shit
        printf "  \"proxy_hash\": {\"req_per_sec\": %.0f, \"hit_rate\": %.3f, \"errors\": %d},\n", hrps, hhit, herr
        printf "  \"proxy_roundrobin\": {\"req_per_sec\": %.0f, \"hit_rate\": %.3f},\n", rrps, rhit
        printf "  \"hash_hit_rate_advantage\": %.3f,\n", hhit - rhit
        printf "  \"fleet_over_single_throughput\": %.2f,\n", hrps / srps
        printf "  \"failover\": {\"requests\": %d, \"errors\": %d, \"healthy_replicas_after_restart\": %d}\n", kreq, kerr, healthy
        printf "}\n"
    }' > "$out"
    echo "wrote $out" >&2
    if [ "$kill_err" != "0" ]; then
        echo "FAILOVER REGRESSION: $kill_err requests lost during replica kill" >&2
        exit 1
    fi
    exit 0
fi

if [ "${1:-}" = "server" ]; then
    out=${2:-BENCH_PR6.json}
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    echo "== timed: fomodeld load benchmarks" >&2
    go test -run '^$' \
        -bench 'BenchmarkPredictHot$|BenchmarkPredictCold$|BenchmarkPredictColdWarmStore$|BenchmarkSweepWorkers1$|BenchmarkSweepWorkersN$' \
        -benchmem -benchtime=20x ./internal/server/ | tee "$tmp" >&2
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$(nproc)" -v gmp="$gomaxprocs" '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns[name] = $3
    }
    END {
        printf "{\n  \"generated\": \"%s\",\n  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n", date, procs, gmp
        printf "  \"predict\": {\n"
        printf "    \"cache_hot\":  {\"ns_per_req\": %d, \"req_per_sec\": %.0f},\n", \
            ns["BenchmarkPredictHot"], 1e9 / ns["BenchmarkPredictHot"]
        printf "    \"cache_cold\": {\"ns_per_req\": %d, \"req_per_sec\": %.1f},\n", \
            ns["BenchmarkPredictCold"], 1e9 / ns["BenchmarkPredictCold"]
        printf "    \"cold_warm_store\": {\"ns_per_req\": %d, \"req_per_sec\": %.0f},\n", \
            ns["BenchmarkPredictColdWarmStore"], 1e9 / ns["BenchmarkPredictColdWarmStore"]
        printf "    \"hot_over_cold\": %.0f,\n", \
            ns["BenchmarkPredictCold"] / ns["BenchmarkPredictHot"]
        printf "    \"warm_store_cold_over_hot\": %.1f,\n", \
            ns["BenchmarkPredictColdWarmStore"] / ns["BenchmarkPredictHot"]
        printf "    \"store_speedup_over_cold\": %.1f\n  },\n", \
            ns["BenchmarkPredictCold"] / ns["BenchmarkPredictColdWarmStore"]
        printf "  \"sweep_12_cells\": {\n"
        printf "    \"workers_1\": {\"ns_per_req\": %d},\n", ns["BenchmarkSweepWorkers1"]
        printf "    \"workers_n\": {\"ns_per_req\": %d},\n", ns["BenchmarkSweepWorkersN"]
        printf "    \"parallel_speedup\": %.2f\n  }\n}\n", \
            ns["BenchmarkSweepWorkers1"] / ns["BenchmarkSweepWorkersN"]
    }' "$tmp" > "$out"
    echo "wrote $out" >&2
    exit 0
fi

out=${1:-BENCH_PR2.json}

echo "== smoke (-benchtime=1x, all benchmarks)" >&2
go test -run '^$' -bench . -benchtime=1x ./... >/dev/null

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== timed: experiment-level (bench_test.go)" >&2
go test -run '^$' -bench 'BenchmarkFigure2$|BenchmarkROBSweep$' \
    -benchmem -benchtime=3x . | tee -a "$tmp" >&2
echo "== timed: uarch micro-benchmarks" >&2
go test -run '^$' \
    -bench 'BenchmarkSimulate$|BenchmarkPrepCacheHit$|BenchmarkPrepCacheMiss$|BenchmarkSimulateIdealSweep$' \
    -benchmem -benchtime=20x ./internal/uarch/ | tee -a "$tmp" >&2
echo "== timed: iw + stats micro-benchmarks" >&2
go test -run '^$' -bench 'BenchmarkCharacteristic' \
    -benchmem -benchtime=10x ./internal/iw/ | tee -a "$tmp" >&2
go test -run '^$' -bench 'BenchmarkAnalyze$' \
    -benchmem -benchtime=10x ./internal/stats/ | tee -a "$tmp" >&2

# Baseline ns/op, B/op, allocs/op for the acceptance benchmarks, measured
# at the pre-PR-2 tree (commit 58b301e) with the same -benchtime=3x.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$(nproc)" -v gmp="$gomaxprocs" '
/^Benchmark/ {
    name = $1
    order[++n] = name
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op")          ns[name] = $i
        else if ($(i+1) == "B/op")      bytes[name] = $i
        else if ($(i+1) == "allocs/op") allocs[name] = $i
    }
}
END {
    base_ns["BenchmarkFigure2"]  = 1598509701
    base_ns["BenchmarkROBSweep"] = 459931992
    base_allocs["BenchmarkFigure2"]  = 1549
    base_allocs["BenchmarkROBSweep"] = 731
    printf "{\n  \"generated\": \"%s\",\n  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n  \"benchmarks\": {\n", date, procs, gmp
    for (j = 1; j <= n; j++) {
        name = order[j]
        printf "    \"%s\": {\"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
            name, ns[name], bytes[name], allocs[name], (j < n ? "," : "")
    }
    printf "  },\n  \"baseline\": {\n"
    printf "    \"commit\": \"58b301e\",\n"
    k = 0
    for (name in base_ns) k++
    j = 0
    for (name in base_ns) {
        j++
        printf "    \"%s\": {\"ns_per_op\": %d, \"allocs_per_op\": %d, \"speedup\": %.2f}%s\n", \
            name, base_ns[name], base_allocs[name], base_ns[name] / ns[name], (j < k ? "," : "")
    }
    printf "  }\n}\n"
}' "$tmp" > "$out"

echo "wrote $out" >&2
