#!/usr/bin/env bash
# Full verification gate: everything CI would require before merge.
#
#   scripts/verify.sh            # gate against the committed BENCH_*.json
#   scripts/verify.sh --record   # ... and rewrite them with this run's timings
#
# A plain run only reads the four BENCH_*.json references and leaves
# the tree clean; only --record writes them.
#
# Runs, in order:
#   1. tier-1: release build + full test suite
#   2. formatting check (cargo fmt --check)
#   3. lint gate (cargo clippy --workspace, warnings are errors)
#   4. telemetry smoke: `ctcp trace --check` validates the Chrome trace
#      and reconciles its counters against the report
#   5. attribution smoke: `ctcp analyze --json` must emit non-empty CPI
#      stacks, `ctcp analyze --top 12 --json` on gzip and on mcf must
#      match their golden files (tests/golden/) byte for byte,
#      `ctcp sweep --attrib` must append the attribution table, and a
#      3M-instruction `ctcp analyze` must exit 0 with its peak RSS
#      (VmHWM, polled from /proc/<pid>/status) under 16 MB: the
#      streaming critical-path walk's memory must not grow with the
#      run, where one 16-byte link per instruction would need 48 MB
#   6. perf smoke: wall-time of a fixed sweep (recorded into
#      BENCH_baseline.json under --record)
#   7. crash-injection smoke: a fail point panics one sweep cell; the
#      batch must finish, render the survivors and exit non-zero; then
#      `ctcp store verify` must pass the store it left clean
#   8. engine perf gate: a scheduler-bound sweep (gzip,twolf x
#      baseline,friendly, 200k instructions, --jobs 1, best of 3) must
#      stay within 125% of the committed reference (BENCH_engine.json)
#   9. batch throughput gate: a warmup-heavy 96-cell sweep must stay
#      within 125% of the committed reference (BENCH_batch.json)
#  10. serve smoke: a real daemon on an ephemeral port serves a client
#      sweep byte-identical to the one-shot CLI, answers /status,
#      drains on shutdown, and leaves a populated results.jsonl with
#      no leftover socket or lock token
#  11. serve concurrency gate: four overlapping clients (one big sweep
#      + three memoized grids) against one daemon (BENCH_serve.json);
#      the aggregate must be <= half the serialized
#      one-shot reference, no cached client may wait more than 100 ms
#      behind the running sweep, and the concurrent time must stay
#      within 125% of the committed reference
#  12. serve chaos gate: SIGKILL a daemon mid-sweep, restart it over
#      the same store, and re-ask the identical grid — the journaled
#      request must replay, the output must be byte-identical to the
#      one-shot CLI, and no finished cell may be recomputed (each of
#      the grid's cells has exactly one valid store line)
#  13. serve observability gate: a daemon with debug logging to a file
#      serves a mixed workload while /metrics is scraped twice (the
#      exposition must parse and its counters must be monotone), every
#      log line must be JSON, /trace/<token> of each finished request
#      named in the log must hold its admit, queued, run <kind> and
#      stream spans and one cell span per progress event the client
#      printed, each on its lane (thread_name service, streams,
#      worker N), and `ctcp top --once` must render a dashboard frame
#  14. benchmark self-check: ctcp-benchmark's own tests, then a one-second
#      run of each in-process workload (detailed, warmup_grid, attrib);
#      each run completes at least one full pass and exits 0 only if
#      every cell matched its committed report digest and none failed
#  15. wide-machine smoke: an 8-cluster fdrt sweep (rasta,mcf x
#      linear,ring at 30k instructions, plus the baseline cells its
#      speedups need) must finish every cell, i.e. no full store buffer
#      or load queue may wedge the pipeline
#  16. checkpoint sharing gate: three overlapping client sweeps on a
#      one-worker daemon (gzip and twolf warmed 200k instructions, and
#      gzip again at another timed budget) must each match the one-shot
#      CLI byte for byte, and /status must count exactly one checkpoint
#      capture per distinct (preset, warmup) pair, two, with every other
#      warmed cell a hit, however the fair ring interleaved them. It
#      checks counts, not timings
set -euo pipefail
cd "$(dirname "$0")/.."

record=0
case "${1:-}" in
    "") ;;
    --record) record=1 ;;
    *)
        echo "usage: scripts/verify.sh [--record]" >&2
        exit 2
        ;;
esac

# Writes stdin to the timing reference $1 under --record; a plain run
# discards it, so gating never dirties the tree.
record_bench() {
    if [ "$record" -eq 1 ]; then
        cat > "$1"
        echo "recorded $1"
    else
        cat > /dev/null
    fi
}

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ctcp trace smoke (exporter validity + counter reconciliation)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/ctcp trace gzip --strategy fdrt --insts 50000 \
    --out "$smoke_dir/trace.json" --metrics-out "$smoke_dir/metrics.jsonl" --check
test -s "$smoke_dir/trace.json"
test -s "$smoke_dir/metrics.jsonl"

echo "==> attribution smoke (ctcp analyze --json + sweep --attrib)"
./target/release/ctcp analyze gzip --strategies base,fdrt --insts 20000 --json \
    > "$smoke_dir/analyze.json"
test -s "$smoke_dir/analyze.json"
grep -q '"attrib":{"stack":{"cycles":' "$smoke_dir/analyze.json"
grep -q '"inter_cluster":' "$smoke_dir/analyze.json"
# Non-empty stacks: no strategy may report a zero-cycle CPI stack.
if grep -q '"cycles":0,"slots"' "$smoke_dir/analyze.json"; then
    echo "FAIL: analyze emitted an empty CPI stack" >&2
    exit 1
fi
# A top-N wider than the default the harness uses, against golden
# captures: the stacks, the walk and the edge order must not drift.
# mcf is the memory-bound preset whose cycles are mostly skipped as
# quiet, so its stack pins the charges a skipped span gets.
for bench in gzip mcf; do
    ./target/release/ctcp analyze "$bench" --strategies base,friendly,fdrt --insts 50000 \
        --top 12 --json > "$smoke_dir/analyze-$bench-top12.json"
    if ! cmp "tests/golden/analyze-$bench-top12.json" "$smoke_dir/analyze-$bench-top12.json"; then
        echo "FAIL: ctcp analyze $bench --top 12 differs from tests/golden/analyze-$bench-top12.json" >&2
        exit 1
    fi
done
./target/release/ctcp sweep --benches gzip --strategies baseline,fdrt \
    --insts 20000 --jobs 1 --attrib > "$smoke_dir/sweep-attrib.out"
grep -q "attribution (fraction of retire slots" "$smoke_dir/sweep-attrib.out"
# Attribution in bounded memory: a run 60x longer than the goldens'
# must peak well below the 48 MB a whole-run link buffer would hold.
./target/release/ctcp analyze gzip --strategies fdrt --insts 3000000 --top 12 --json \
    > "$smoke_dir/analyze-3m.json" &
analyze_pid=$!
hwm_kb=0
while kill -0 "$analyze_pid" 2>/dev/null; do
    kb=$(awk '/^VmHWM:/ { print $2 }' "/proc/$analyze_pid/status" 2>/dev/null || true)
    if [ -n "$kb" ] && [ "$kb" -gt "$hwm_kb" ]; then
        hwm_kb=$kb
    fi
    sleep 0.02
done
if ! wait "$analyze_pid"; then
    echo "FAIL: ctcp analyze gzip --insts 3000000 exited non-zero" >&2
    exit 1
fi
grep -q '"critical":{"edges":' "$smoke_dir/analyze-3m.json"
echo "analyze --insts 3000000: VmHWM ${hwm_kb} kB"
if [ "$hwm_kb" -eq 0 ] || [ "$hwm_kb" -ge $((16 * 1024)) ]; then
    echo "FAIL: ctcp analyze --insts 3000000 peaked at ${hwm_kb} kB (bound 16384 kB)" >&2
    exit 1
fi

echo "==> perf smoke (fixed sweep wall-time)"
# Fixed workload: recorder-off sweep, single-threaded so the number tracks
# simulator speed rather than host core count; no cache so it always
# simulates.
start_ns=$(date +%s%N)
./target/release/ctcp sweep --benches gzip,twolf --strategies baseline,fdrt \
    --insts 50000 --jobs 1 >/dev/null
end_ns=$(date +%s%N)
wall_ms=$(( (end_ns - start_ns) / 1000000 ))
record_bench BENCH_baseline.json <<EOF
{
  "bench": "sweep gzip,twolf x baseline,fdrt --insts 50000 --jobs 1",
  "wall_ms": $wall_ms,
  "recorded_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "perf smoke: ${wall_ms} ms"

echo "==> crash-injection smoke (fail point panics one sweep cell)"
# The injected panic kills the twolf/fdrt cell (after one retry); the
# sweep must still complete, render the surviving gzip rows, append the
# failure table, and exit non-zero. Successes are cached in an
# isolated store (cwd-relative target/ctcp-results under the smoke
# dir), which must then verify clean.
if (cd "$smoke_dir" && CTCP_FAIL_POINT=job-panic=twolf:fdrt \
    "$OLDPWD/target/release/ctcp" sweep \
        --benches gzip,twolf --strategies fdrt --insts 20000 \
        --jobs 2 --cache > sweep-crash.out 2>/dev/null); then
    echo "FAIL: sweep with an injected crash must exit non-zero" >&2
    exit 1
fi
grep -q "^gzip" "$smoke_dir/sweep-crash.out"
grep -q "twolf/fdrt: panic:" "$smoke_dir/sweep-crash.out"

echo "==> result store verify (post-crash store must be clean)"
./target/release/ctcp store verify --dir "$smoke_dir/target/ctcp-results"

echo "==> engine perf gate (scheduler-bound sweep vs BENCH_engine.json)"
# Scheduler-bound workload: enough instructions that the engine's
# dispatch/wakeup/complete/select loop dominates wall time. Best of 3
# to shed host noise; fails if it regresses more than 25% over the
# committed reference.
engine_bench="sweep gzip,twolf x baseline,friendly --insts 200000 --jobs 1 (best of 3)"
engine_sweep() {
    ./target/release/ctcp sweep --benches gzip,twolf \
        --strategies baseline,friendly --insts 200000 --jobs 1 >/dev/null
}
best_of_3() {
    local best=0 ms start_ns end_ns
    for _ in 1 2 3; do
        start_ns=$(date +%s%N)
        "$@"
        end_ns=$(date +%s%N)
        ms=$(( (end_ns - start_ns) / 1000000 ))
        if [ "$best" -eq 0 ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
    done
    echo "$best"
}
engine_ms=$(best_of_3 engine_sweep)
# The committed gate_ref_ms is the regression reference; keep it stable
# across runs so noise cannot ratchet the gate. Refresh it by deleting
# the field (or the file) and re-running verify --record.
gate_ref_ms=$(sed -n 's/.*"gate_ref_ms": \([0-9]*\).*/\1/p' BENCH_engine.json 2>/dev/null || true)
if [ -z "${gate_ref_ms}" ]; then
    gate_ref_ms=$engine_ms
fi
limit_ms=$(( gate_ref_ms * 125 / 100 ))
if [ "$engine_ms" -gt "$limit_ms" ]; then
    echo "FAIL: engine sweep took ${engine_ms} ms > ${limit_ms} ms" \
         "(125% of committed reference ${gate_ref_ms} ms)" >&2
    exit 1
fi
record_bench BENCH_engine.json <<EOF
{
  "bench": "$engine_bench",
  "wall_ms": $engine_ms,
  "gate_ref_ms": $gate_ref_ms,
  "recorded_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "engine perf gate: ${engine_ms} ms (gate: ${limit_ms} ms)"

echo "==> batch throughput gate (warmup-heavy sweep vs BENCH_batch.json)"
# Warmup-heavy grid: 96 cells (2 benches x 2 cluster counts x 3
# topologies x [baseline + 7 strategies]), each fast-forwarding 1M
# instructions before a short timed phase. Scheduler workers capture
# one warmup checkpoint per (program, warmup) and recycle engine
# arenas, so losing either shows up here as a slowdown. Best of 3 to
# shed host noise; must stay within 125% of the committed reference.
batch_cells=96
batch_bench="sweep gzip,twolf x 7 strategies x {2,4} clusters x 3 topologies --warmup 1000000 --insts 2000 --jobs 1 (best of 3)"
batch_sweep() {
    ./target/release/ctcp sweep --benches gzip,twolf \
        --strategies issue0,issue4,friendly,friendly-mid,fdrt,fdrt-nopin,fdrt-intra \
        --clusters 2,4 --topology linear,ring,full \
        --warmup 1000000 --insts 2000 --jobs 1 >/dev/null
}
batched_ms=$(best_of_3 batch_sweep)
cells_per_sec=$(( batch_cells * 1000 / batched_ms ))
batch_ref_ms=$(sed -n 's/.*"gate_ref_ms": \([0-9]*\).*/\1/p' BENCH_batch.json 2>/dev/null || true)
if [ -z "${batch_ref_ms}" ]; then
    batch_ref_ms=$batched_ms
fi
batch_limit_ms=$(( batch_ref_ms * 125 / 100 ))
if [ "$batched_ms" -gt "$batch_limit_ms" ]; then
    echo "FAIL: batched sweep took ${batched_ms} ms > ${batch_limit_ms} ms" \
         "(125% of committed reference ${batch_ref_ms} ms)" >&2
    exit 1
fi
record_bench BENCH_batch.json <<EOF
{
  "bench": "$batch_bench",
  "cells": $batch_cells,
  "batched_ms": $batched_ms,
  "cells_per_sec": $cells_per_sec,
  "gate_ref_ms": $batch_ref_ms,
  "recorded_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "batch throughput gate: ${batched_ms} ms (${cells_per_sec} cells/s," \
     "gate: ${batch_limit_ms} ms)"

echo "==> serve smoke (daemon round-trip, status, drain)"
serve_store="$smoke_dir/serve-store"
: > "$smoke_dir/serve.out"    # exists before the daemon's first write
./target/release/ctcp serve --addr 127.0.0.1:0 --jobs 2 --dir "$serve_store" \
    > "$smoke_dir/serve.out" 2>/dev/null &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 50); do
    serve_addr=$(sed -n 's/.*listening on //p' "$smoke_dir/serve.out" | head -n1)
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "FAIL: daemon never printed its listening address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/ctcp client sweep --addr "$serve_addr" \
    --benches gzip --strategies fdrt --insts 20000 --csv \
    > "$smoke_dir/serve-sweep.csv" 2>/dev/null
./target/release/ctcp sweep --benches gzip --strategies fdrt --insts 20000 --csv \
    > "$smoke_dir/oneshot-sweep.csv"
cmp "$smoke_dir/serve-sweep.csv" "$smoke_dir/oneshot-sweep.csv"
./target/release/ctcp client status --addr "$serve_addr" \
    > "$smoke_dir/serve-status.json"
grep -q '"serve_requests"' "$smoke_dir/serve-status.json"
./target/release/ctcp client shutdown --addr "$serve_addr" >/dev/null
if ! wait "$serve_pid"; then
    echo "FAIL: daemon did not exit cleanly on shutdown" >&2
    exit 1
fi
grep -q "drained after" "$smoke_dir/serve.out"
# The drained store must hold the sweep's cells, with no leftover
# lock token; the socket must be closed.
grep -q . "$serve_store/results.jsonl"
if ls "$serve_store"/*.lock >/dev/null 2>&1; then
    echo "FAIL: orphaned lock tokens left in the serve store" >&2
    exit 1
fi
if ./target/release/ctcp client status --addr "$serve_addr" >/dev/null 2>&1; then
    echo "FAIL: daemon still listening after drain" >&2
    exit 1
fi

echo "==> serve concurrency gate (4-client mixed load vs BENCH_serve.json)"
# Mixed load: one big sweep (the 30-cell focus grid) plus three small
# grids the daemon has already memoized. The serialized reference runs
# the same four requests as one-shot CLI commands back-to-back (no
# daemon, no cache) — what the load costs without a resident service.
# The concurrent run launches all four clients at once against one
# daemon: the big sweep occupies the worker pool while the three
# cached requests are answered from the store fast path on their own
# connection threads. The aggregate must come in at <= half the
# serialized reference, and no cached client may wait more than
# 100 ms behind the running sweep (anything slower means requests are
# serializing on the handler again). Best of 3 each to shed host
# noise; 125% regression gate against the committed reference.
serve_gate_big="--benches focus --insts 20000"
serve_gate_small1="--benches gzip,twolf --insts 50000"
serve_gate_small2="--benches vpr,mcf --insts 50000"
serve_gate_small3="--benches gcc,parser --insts 50000"
serialized_load() {
    local req
    for req in "$serve_gate_big" "$serve_gate_small1" \
               "$serve_gate_small2" "$serve_gate_small3"; do
        # shellcheck disable=SC2086
        ./target/release/ctcp sweep $req --csv >/dev/null
    done
}
concurrent_load() {    # echoes "<total_ms> <worst_cached_client_ms>"
    local dir="$1" pid addr="" req i s e
    rm -rf "$dir"
    mkdir -p "$dir"
    : > "$dir/serve.out"
    ./target/release/ctcp serve --addr 127.0.0.1:0 --jobs 2 \
        --dir "$dir/store" > "$dir/serve.out" 2>/dev/null &
    pid=$!
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/.*listening on //p' "$dir/serve.out" | head -n1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: concurrency-gate daemon never printed its address" >&2
        kill "$pid" 2>/dev/null || true
        return 1
    fi
    # Memoize the three small grids (untimed: a resident store that
    # stays warm across clients is the point of the service).
    for req in "$serve_gate_small1" "$serve_gate_small2" \
               "$serve_gate_small3"; do
        # shellcheck disable=SC2086
        ./target/release/ctcp client sweep --addr "$addr" $req --csv \
            >/dev/null 2>/dev/null
    done
    local start_ns end_ns total cached ms
    local pids=()
    i=0
    start_ns=$(date +%s%N)
    for req in "$serve_gate_big" "$serve_gate_small1" \
               "$serve_gate_small2" "$serve_gate_small3"; do
        (
            s=$(date +%s%N)
            # shellcheck disable=SC2086
            ./target/release/ctcp client sweep --addr "$addr" $req --csv \
                >/dev/null 2>/dev/null
            e=$(date +%s%N)
            echo $(( (e - s) / 1000000 )) > "$dir/client$i.ms"
        ) &
        pids+=($!)
        i=$((i + 1))
    done
    wait "${pids[@]}"
    end_ns=$(date +%s%N)
    ./target/release/ctcp client shutdown --addr "$addr" >/dev/null
    wait "$pid"
    total=$(( (end_ns - start_ns) / 1000000 ))
    cached=0
    for i in 1 2 3; do
        ms=$(cat "$dir/client$i.ms")
        if [ "$ms" -gt "$cached" ]; then cached=$ms; fi
    done
    echo "$total $cached"
}
serialized_ms=$(best_of_3 serialized_load)
concurrent_ms=0
cached_under_load_ms=0
for _ in 1 2 3; do
    conc_out=$(concurrent_load "$smoke_dir/serve-conc")
    conc_total=${conc_out% *}
    conc_cached=${conc_out#* }
    if [ "$concurrent_ms" -eq 0 ] || [ "$conc_total" -lt "$concurrent_ms" ]; then
        concurrent_ms=$conc_total
        cached_under_load_ms=$conc_cached
    fi
done
if [ "$serialized_ms" -lt $(( concurrent_ms * 2 )) ]; then
    echo "FAIL: concurrent 4-client load (${concurrent_ms} ms) is not 2x" \
         "faster than the serialized reference (${serialized_ms} ms)" >&2
    exit 1
fi
if [ "$cached_under_load_ms" -ge 100 ]; then
    echo "FAIL: a fully-cached client waited ${cached_under_load_ms} ms" \
         "behind the running sweep (limit 100 ms)" >&2
    exit 1
fi
serve_speedup_x100=$(( serialized_ms * 100 / concurrent_ms ))
serve_ref_ms=$(sed -n 's/.*"gate_ref_ms": \([0-9]*\).*/\1/p' BENCH_serve.json 2>/dev/null || true)
if [ -z "${serve_ref_ms}" ]; then
    serve_ref_ms=$concurrent_ms
fi
serve_limit_ms=$(( serve_ref_ms * 125 / 100 ))
if [ "$concurrent_ms" -gt "$serve_limit_ms" ]; then
    echo "FAIL: concurrent 4-client load took ${concurrent_ms} ms >" \
         "${serve_limit_ms} ms (125% of committed reference ${serve_ref_ms} ms)" >&2
    exit 1
fi
record_bench BENCH_serve.json <<EOF
{
  "bench": "serve: focus x 20000 + 3 memoized 2-bench grids x 50000, 4 concurrent clients vs one-shot serialized (best of 3)",
  "concurrent_ms": $concurrent_ms,
  "serialized_ms": $serialized_ms,
  "speedup_x100": $serve_speedup_x100,
  "cached_under_load_ms": $cached_under_load_ms,
  "gate_ref_ms": $serve_ref_ms,
  "recorded_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
}
EOF
echo "serve concurrency gate: concurrent ${concurrent_ms} ms, serialized" \
     "${serialized_ms} ms (speedup ${serve_speedup_x100}%, cached client" \
     "${cached_under_load_ms} ms under load)"

echo "==> serve chaos gate (SIGKILL mid-sweep, restart, resume)"
# Crash-recovery end to end against release binaries: a daemon is
# SIGKILLed while a six-cell sweep is mid-flight, restarted over the
# same store directory, and asked the identical grid again. The
# journal must replay the crashed request, cells memoized before the
# kill must come back as store hits (zero recomputation — exactly one
# valid store line per cell; the kill itself may leave one quarantined
# torn line), and the resumed output must be byte-identical to the
# one-shot CLI.
chaos_dir="$smoke_dir/serve-chaos"
mkdir -p "$chaos_dir"
chaos_grid="--benches gzip,twolf --strategies fdrt,friendly --insts 1000000"
chaos_daemon() {    # $1: log file; sets chaos_pid and chaos_addr
    : > "$1"
    ./target/release/ctcp serve --addr 127.0.0.1:0 --jobs 1 \
        --dir "$chaos_dir/store" > "$1" 2>/dev/null &
    chaos_pid=$!
    chaos_addr=""
    for _ in $(seq 1 50); do
        chaos_addr=$(sed -n 's/.*listening on //p' "$1" | head -n1)
        [ -n "$chaos_addr" ] && break
        sleep 0.1
    done
    if [ -z "$chaos_addr" ]; then
        echo "FAIL: chaos-gate daemon never printed its address" >&2
        kill "$chaos_pid" 2>/dev/null || true
        return 1
    fi
}
chaos_daemon "$chaos_dir/serve1.out"
# shellcheck disable=SC2086
./target/release/ctcp client sweep --addr "$chaos_addr" $chaos_grid --csv \
    > /dev/null 2> "$chaos_dir/victim.err" &
victim_pid=$!
# Two per-cell progress lines = mid-flight, with at least one finished
# cell durably memoized and journal-marked before the crash.
progressed=""
for _ in $(seq 1 400); do
    if [ "$(grep -c '^\[' "$chaos_dir/victim.err" 2>/dev/null)" -ge 2 ]; then
        progressed=yes
        break
    fi
    sleep 0.05
done
if [ -z "$progressed" ]; then
    echo "FAIL: chaos sweep never got mid-flight before the kill" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
if wait "$victim_pid" 2>/dev/null; then
    echo "FAIL: the victim client must fail when its daemon is killed" >&2
    exit 1
fi
chaos_daemon "$chaos_dir/serve2.out"
# shellcheck disable=SC2086
./target/release/ctcp client sweep --addr "$chaos_addr" $chaos_grid --csv \
    > "$chaos_dir/resumed.csv" 2>/dev/null
# shellcheck disable=SC2086
./target/release/ctcp sweep $chaos_grid --csv > "$chaos_dir/oneshot.csv"
cmp "$chaos_dir/resumed.csv" "$chaos_dir/oneshot.csv"
./target/release/ctcp client status --addr "$chaos_addr" > "$chaos_dir/status.json"
grep -q '"serve_journal_replayed":1' "$chaos_dir/status.json"
./target/release/ctcp client shutdown --addr "$chaos_addr" >/dev/null
if ! wait "$chaos_pid"; then
    echo "FAIL: restarted chaos daemon did not exit cleanly" >&2
    exit 1
fi
./target/release/ctcp store verify --dir "$chaos_dir/store" \
    > "$chaos_dir/store-verify.out" || true
if ! grep -q "6 valid (6 entries)" "$chaos_dir/store-verify.out"; then
    echo "FAIL: chaos store shows recomputed or missing cells:" >&2
    cat "$chaos_dir/store-verify.out" >&2
    exit 1
fi

echo "==> serve observability gate (/metrics, /trace, logs, ctcp top)"
obs_dir="$smoke_dir/serve-obs"
mkdir -p "$obs_dir"
: > "$obs_dir/serve.out"
./target/release/ctcp serve --addr 127.0.0.1:0 --jobs 2 \
    --dir "$obs_dir/store" --log-level debug --log-file "$obs_dir/serve.log" \
    > "$obs_dir/serve.out" 2>/dev/null &
obs_pid=$!
obs_addr=""
for _ in $(seq 1 50); do
    obs_addr=$(sed -n 's/.*listening on //p' "$obs_dir/serve.out" | head -n1)
    [ -n "$obs_addr" ] && break
    sleep 0.1
done
if [ -z "$obs_addr" ]; then
    echo "FAIL: observability-gate daemon never printed its address" >&2
    kill "$obs_pid" 2>/dev/null || true
    exit 1
fi
curl -sf "http://$obs_addr/metrics" > "$obs_dir/metrics1.txt"
# Mixed workload: a sweep and an analyze, like real clients. Each
# client prints one `[done/total]` line per progress event to stderr.
./target/release/ctcp client sweep --addr "$obs_addr" \
    --benches gzip --strategies fdrt --insts 20000 --csv >/dev/null 2>"$obs_dir/sweep.err"
./target/release/ctcp client analyze --addr "$obs_addr" \
    --bench gzip --insts 10000 >/dev/null 2>"$obs_dir/analyze.err"
curl -sf "http://$obs_addr/metrics" > "$obs_dir/metrics2.txt"
# Exposition validity: every sample line is `name[{labels}] value`.
if grep -vE '^(#|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9.e+]+$)' \
        "$obs_dir/metrics2.txt" | grep -q .; then
    echo "FAIL: unparseable /metrics exposition lines:" >&2
    grep -vE '^(#|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9.e+]+$)' \
        "$obs_dir/metrics2.txt" >&2
    exit 1
fi
grep -q '^# TYPE ctcp_request_latency_ms histogram' "$obs_dir/metrics2.txt"
grep -q 'ctcp_request_latency_ms_bucket{le="+Inf"}' "$obs_dir/metrics2.txt"
# Counters are monotone between the two scrapes.
obs_before=$(awk '/^ctcp_serve_requests_total /{print $2}' "$obs_dir/metrics1.txt")
obs_after=$(awk '/^ctcp_serve_requests_total /{print $2}' "$obs_dir/metrics2.txt")
if [ -z "$obs_before" ] || [ -z "$obs_after" ] || [ "$obs_after" -lt "$obs_before" ]; then
    echo "FAIL: ctcp_serve_requests_total not monotone: '$obs_before' -> '$obs_after'" >&2
    exit 1
fi
if [ "$obs_after" -lt 2 ]; then
    echo "FAIL: the mixed workload was not counted: $obs_after" >&2
    exit 1
fi
# Every structured log line is JSON with the core fields; each finished
# request's token resolves to a Chrome trace of its whole life.
python3 - "$obs_dir/serve.log" > "$obs_dir/tokens.txt" <<'EOF'
import json, sys
finished = []
for line in open(sys.argv[1]):
    rec = json.loads(line)
    for key in ("ts_ms", "level", "target", "msg"):
        assert key in rec, f"log record missing {key}: {line!r}"
    if rec["msg"] == "request finished":
        finished.append((rec["token"], rec["kind"]))
assert {k for _, k in finished} == {"sweep", "analyze"}, f"finished: {finished}"
for token, kind in finished:
    print(token, kind)
EOF
while read -r obs_token obs_kind; do
    curl -sf "http://$obs_addr/trace/$obs_token" > "$obs_dir/trace-$obs_kind.json"
    python3 - "$obs_dir/trace-$obs_kind.json" "$obs_kind" "$obs_dir/$obs_kind.err" <<'EOF'
import json, re, sys
events = json.load(open(sys.argv[1]))
kind = sys.argv[2]
progress = sum(1 for line in open(sys.argv[3]) if re.match(r"\[\d+/\d+\] ", line))
lanes = {e["tid"]: e["args"]["name"] for e in events if e.get("ph") == "M"}
spans = [e for e in events if e.get("ph") == "X"]
named = lambda n: sum(1 for e in spans if e["name"] == n)
for name in ("admit", "queued", f"run {kind}"):
    assert named(name) == 1, f"{kind}: {named(name)} {name!r} spans"
assert named("stream") >= 1, f"{kind}: no stream span"
cells = [e for e in spans if e["name"].startswith("cell ")]
assert progress > 0 and len(cells) == progress, \
    f"{kind}: {len(cells)} cell spans for {progress} progress events"
home = {"admit": "service", "queued": "service", f"run {kind}": "service", "stream": "streams"}
for e in spans:
    want = home.get(e["name"], f"worker {e['tid'] - 2}")
    assert lanes.get(e["tid"]) == want, f"{kind}: {e['name']!r} on lane {lanes.get(e['tid'])!r}, want {want!r}"
assert {"service", "streams"} <= set(lanes.values()), f"{kind}: lanes {sorted(lanes.values())}"
EOF
done < "$obs_dir/tokens.txt"
./target/release/ctcp top --addr "$obs_addr" --once > "$obs_dir/top.txt"
grep -q "ctcp top" "$obs_dir/top.txt"
grep -q "workers" "$obs_dir/top.txt"
grep -q "requests" "$obs_dir/top.txt"
./target/release/ctcp client shutdown --addr "$obs_addr" >/dev/null
if ! wait "$obs_pid"; then
    echo "FAIL: observability-gate daemon did not exit cleanly" >&2
    exit 1
fi

echo "==> benchmark self-check (ctcp-benchmark tests + one pass per workload)"
# ctcp-benchmark is a package of its own, outside the workspace, so
# `cargo test --workspace` never builds it.
cargo test --offline -q --manifest-path ctcp-benchmark/Cargo.toml
for workload in detailed warmup_grid attrib; do
    cargo run --release --quiet --offline --manifest-path ctcp-benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 > "$smoke_dir/bench-$workload.out"
    echo "$workload: $(grep -o '^{"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*' \
        "$smoke_dir/bench-$workload.out")"
done

echo "==> wide-machine smoke (8-cluster sweep finishes every cell)"
# Sweep-scaled 8-cluster machines have a 256-entry window in front of
# the 32-entry store buffer and load queue, which fill out of program
# order; the engine must admit the oldest store or load past a full
# one (DESIGN.md §7c, oldest-entry admission) or these cells livelock.
./target/release/ctcp sweep --benches rasta,mcf --clusters 8 --topology linear,ring \
    --strategies fdrt --insts 30000 > "$smoke_dir/wide.out"
echo "wide-machine smoke: $(grep -c '^ *\(rasta\|mcf\) ' "$smoke_dir/wide.out" || true) rows"

echo "==> checkpoint sharing gate (one capture per (preset, warmup) per pool)"
# The fair ring hands the one worker a cell of each request in turn,
# so the three requests' cells interleave across two programs. Each
# request builds its programs afresh, and the third asks for the first
# one's preset and warmup at another timed budget: its cells are new
# and must reuse the first request's checkpoint, not capture again.
ck_dir="$smoke_dir/serve-checkpoints"
mkdir -p "$ck_dir"
: > "$ck_dir/serve.out"    # exists before the daemon's first write
./target/release/ctcp serve --addr 127.0.0.1:0 --jobs 1 --dir "$ck_dir/store" \
    > "$ck_dir/serve.out" 2>/dev/null &
ck_pid=$!
ck_addr=""
for _ in $(seq 1 50); do
    ck_addr=$(sed -n 's/.*listening on //p' "$ck_dir/serve.out" | head -n1)
    [ -n "$ck_addr" ] && break
    sleep 0.1
done
if [ -z "$ck_addr" ]; then
    echo "FAIL: checkpoint-gate daemon never printed its address" >&2
    kill "$ck_pid" 2>/dev/null || true
    exit 1
fi
ck_grids=(
    "--benches gzip --strategies friendly,fdrt --clusters 2,4 --warmup 200000 --insts 20000"
    "--benches twolf --strategies friendly,fdrt --clusters 2,4 --warmup 200000 --insts 20000"
    "--benches gzip --strategies friendly,fdrt --clusters 2,4 --warmup 200000 --insts 25000"
)
ck_cells=18    # 3 requests x (2 strategies + baseline) x 2 cluster counts
ck_pids=()
for i in 0 1 2; do
    # shellcheck disable=SC2086
    ./target/release/ctcp client sweep --addr "$ck_addr" ${ck_grids[$i]} --csv \
        > "$ck_dir/served$i.csv" 2>/dev/null &
    ck_pids+=($!)
done
wait "${ck_pids[@]}"
for i in 0 1 2; do
    # shellcheck disable=SC2086
    ./target/release/ctcp sweep ${ck_grids[$i]} --csv > "$ck_dir/oneshot$i.csv"
    cmp "$ck_dir/served$i.csv" "$ck_dir/oneshot$i.csv"
done
./target/release/ctcp client status --addr "$ck_addr" > "$ck_dir/status.json"
./target/release/ctcp client shutdown --addr "$ck_addr" >/dev/null
if ! wait "$ck_pid"; then
    echo "FAIL: checkpoint-gate daemon did not exit cleanly" >&2
    exit 1
fi
ck_captures=$(sed -n 's/.*"serve_checkpoint_captures":\([0-9]*\).*/\1/p' "$ck_dir/status.json")
ck_hits=$(sed -n 's/.*"serve_checkpoint_hits":\([0-9]*\).*/\1/p' "$ck_dir/status.json")
if [ "$ck_captures" != 2 ] || [ "$ck_hits" != $((ck_cells - 2)) ]; then
    echo "FAIL: expected 2 checkpoint captures and $((ck_cells - 2)) hits," \
         "got '$ck_captures' and '$ck_hits'" >&2
    exit 1
fi
echo "checkpoint sharing gate: $ck_captures captures, $ck_hits hits over $ck_cells cells"

echo "==> verify OK"
