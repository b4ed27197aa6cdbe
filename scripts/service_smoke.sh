#!/usr/bin/env bash
# Service smoke: boot `scalana serve` on an ephemeral port, submit the
# same job twice, and assert the second submission is answered from the
# content-addressed cache (via the response's `cached` flag AND the
# /stats hit counter) without re-running the simulator. Then: crash
# recovery on a durable store (kill -9 + warm restart).
#
#   scripts/service_smoke.sh [path/to/scalana]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/scalana}"
if [ ! -x "$BIN" ]; then
    echo "service smoke: $BIN not built (run cargo build --release first)" >&2
    exit 1
fi

WORKDIR="$(mktemp -d)"
cleanup() {
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Boot one daemon in the background with the given log file and extra
# flags; sets ADDR and SERVE_PID (no subshell, so both propagate to the
# caller).
boot_daemon() {
    local log="$1"; shift
    "$BIN" serve --addr 127.0.0.1:0 --workers 2 "$@" > "$log" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log")"
        [ -n "$ADDR" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    [ -n "$ADDR" ] \
        || { echo "service smoke: daemon never announced its address" >&2; return 1; }
}

cat > "$WORKDIR/demo.mmpi" <<'EOF'
param N = 500_000;
fn main() {
    for it in 0 .. 6 {
        comp(cycles = N / nprocs, ins = N / nprocs);
        if rank == 0 {
            for s in 0 .. 2 { comp(cycles = N / 4, ins = N / 4); }
        }
        barrier();
    }
    allreduce(bytes = 8);
}
EOF

echo "==> scalana serve --addr 127.0.0.1:0 (ephemeral port)"
boot_daemon "$WORKDIR/serve.log"
echo "    daemon at $ADDR"

echo "==> first submission (must run the pipeline)"
FIRST="$("$BIN" submit --addr "$ADDR" "$WORKDIR/demo.mmpi" --scales 2,4 --wait)"
echo "$FIRST" | grep -q '"cached":false' || { echo "first submit unexpectedly cached: $FIRST" >&2; exit 1; }
echo "$FIRST" | grep -q '"status":"done"' || { echo "first job did not finish: $FIRST" >&2; exit 1; }

echo "==> second identical submission (must be a cache hit)"
SECOND="$("$BIN" submit --addr "$ADDR" "$WORKDIR/demo.mmpi" --scales 2,4)"
echo "$SECOND" | grep -q '"cached":true' || { echo "second submit missed the cache: $SECOND" >&2; exit 1; }

STATS="$("$BIN" status --addr "$ADDR")"
echo "$STATS" | grep -q '"cache_hits":1' || { echo "stats disagree about the hit: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"executed":1' || { echo "cache hit re-ran the simulator: $STATS" >&2; exit 1; }

echo "==> overlapping-scales submission (must hit the per-scale cache)"
# Scales 2 and 4 were profiled by the first job; only 8 may simulate.
THIRD="$("$BIN" submit --addr "$ADDR" "$WORKDIR/demo.mmpi" --scales 2,4,8 --wait)"
echo "$THIRD" | grep -q '"status":"done"' || { echo "overlap job did not finish: $THIRD" >&2; exit 1; }
STATS="$("$BIN" status --addr "$ADDR")"
echo "$STATS" | grep -q '"scale_hits":2' || { echo "overlap submission missed the per-scale cache: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"scale_misses":3' || { echo "unexpected per-scale miss count: $STATS" >&2; exit 1; }

echo "==> /v1/metrics agrees with /stats on the per-tier cache counters"
METRICS="$("$BIN" top --addr "$ADDR" --raw)"
echo "$METRICS" | grep -q '^scalana_cache_scale_hits_total 2$' \
    || { echo "metrics disagree with /stats on scale hits: $METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '^scalana_cache_scale_misses_total 3$' \
    || { echo "metrics disagree with /stats on scale misses: $METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '^scalana_cache_result_hits_total 1$' \
    || { echo "metrics disagree with /stats on result hits: $METRICS" >&2; exit 1; }
echo "$METRICS" | grep -q '^# TYPE scalana_stage_simulate_ns summary$' \
    || { echo "metrics lack the simulate stage histogram: $METRICS" >&2; exit 1; }

JOB="$(echo "$SECOND" | sed -n 's/.*"job":"\([0-9a-f]*\)".*/\1/p')"
"$BIN" result --addr "$ADDR" "$JOB" | grep -q '"report"' \
    || { echo "result endpoint did not serve the cached report" >&2; exit 1; }

echo "==> scalana diff end-to-end (both sides reuse cached profiles)"
# A second program: the demo with a heavier serial section. Side `a`
# re-references the fully cached demo job; side `b` is fresh work.
sed 's/N \/ 4/N \/ 2/' "$WORKDIR/demo.mmpi" > "$WORKDIR/demo_slow.mmpi"
DIFF="$("$BIN" diff --addr "$ADDR" "$WORKDIR/demo.mmpi" "$WORKDIR/demo_slow.mmpi" --scales 2,4)"
echo "$DIFF" | grep -q '"summary"' || { echo "diff produced no summary: $DIFF" >&2; exit 1; }
echo "$DIFF" | grep -q '"root_causes"' || { echo "diff produced no root_causes: $DIFF" >&2; exit 1; }
# Side `a` hit the whole-job cache, so per-scale counters moved only
# for side `b`'s two scales (both fresh simulations).
STATS="$("$BIN" status --addr "$ADDR")"
echo "$STATS" | grep -q '"scale_hits":2' || { echo "diff disturbed the per-scale cache: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"scale_misses":5' || { echo "unexpected per-scale misses after diff: $STATS" >&2; exit 1; }
# The identical diff again is fully cached and byte-identical.
AGAIN="$("$BIN" diff --addr "$ADDR" "$WORKDIR/demo.mmpi" "$WORKDIR/demo_slow.mmpi" --scales 2,4)"
[ "$DIFF" = "$AGAIN" ] || { echo "diff output is not deterministic" >&2; exit 1; }

echo "==> shutdown"
"$BIN" shutdown --addr "$ADDR" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

# ---------------------------------------------------------------------
# Crash recovery: a fresh daemon with a durable store, killed with
# SIGKILL (no shutdown hook, no flush), must warm-restart from the
# store directory and answer the same submission with zero per-scale
# misses and an identical report.
# ---------------------------------------------------------------------
STORE="$WORKDIR/store"

echo "==> scalana serve --store-dir (durable store)"
boot_daemon "$WORKDIR/serve_store.log" --store-dir "$STORE"
echo "    daemon at $ADDR (store at $STORE)"

BEFORE="$("$BIN" submit --addr "$ADDR" "$WORKDIR/demo.mmpi" --scales 2,4 --wait)"
echo "$BEFORE" | grep -q '"status":"done"' || { echo "store job did not finish: $BEFORE" >&2; exit 1; }
JOB="$(echo "$BEFORE" | sed -n 's/.*"job":"\([0-9a-f]*\)".*/\1/p' | head -n1)"
# detect_seconds is wall-clock; everything else in the result document
# is the byte-stable contract the restart must reproduce.
REPORT_BEFORE="$("$BIN" result --addr "$ADDR" "$JOB" | sed 's/"detect_seconds":[0-9.eE+-]*//')"

# Wait for the write-behind queue to flush all three artifacts
# (2 profile images + 1 PSG trace) before pulling the plug.
for _ in $(seq 1 100); do
    "$BIN" status --addr "$ADDR" | grep -q '"store_entries":3' && break
    sleep 0.1
done
"$BIN" status --addr "$ADDR" | grep -q '"store_entries":3' \
    || { echo "store never flushed the job's artifacts" >&2; exit 1; }
"$BIN" top --addr "$ADDR" --raw | grep -q '^scalana_store_writes_total 3$' \
    || { echo "metrics disagree about store writes" >&2; exit 1; }

echo "==> kill -9 (no shutdown, no flush)"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> warm restart on the same --store-dir"
boot_daemon "$WORKDIR/serve_warm.log" --store-dir "$STORE"

STATS="$("$BIN" status --addr "$ADDR")"
echo "$STATS" | grep -q '"store_loaded":3' || { echo "warm boot did not reload the store: $STATS" >&2; exit 1; }
# Every live key is validated, indexed and counted exactly once at boot,
# however the dead daemon's writer had batched them into files.
LOADED="$(echo "$STATS" | sed -n 's/.*"store_loaded":\([0-9]*\).*/\1/p')"
ENTRIES="$(echo "$STATS" | sed -n 's/.*"store_entries":\([0-9]*\).*/\1/p')"
[ -n "$LOADED" ] && [ "$LOADED" = "$ENTRIES" ] \
    || { echo "warm boot loaded $LOADED of $ENTRIES store entries: $STATS" >&2; exit 1; }

AFTER="$("$BIN" submit --addr "$ADDR" "$WORKDIR/demo.mmpi" --scales 2,4 --wait)"
echo "$AFTER" | grep -q '"status":"done"' || { echo "warm resubmission did not finish: $AFTER" >&2; exit 1; }
STATS="$("$BIN" status --addr "$ADDR")"
echo "$STATS" | grep -q '"scale_misses":0' || { echo "warm resubmission re-simulated: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"scale_hits":2' || { echo "warm resubmission missed the store: $STATS" >&2; exit 1; }

REPORT_AFTER="$("$BIN" result --addr "$ADDR" "$JOB" | sed 's/"detect_seconds":[0-9.eE+-]*//')"
[ "$REPORT_BEFORE" = "$REPORT_AFTER" ] \
    || { echo "post-crash report diverges from the pre-crash answer" >&2; exit 1; }

echo "==> scalana store ls / gc"
"$BIN" store ls --addr "$ADDR" | grep -q '"entries":3' \
    || { echo "store ls does not see the durable entries" >&2; exit 1; }
"$BIN" store gc --addr "$ADDR" | grep -q '"evicted":0' \
    || { echo "unquota'd store gc evicted something" >&2; exit 1; }

echo "==> shutdown (store daemon)"
"$BIN" shutdown --addr "$ADDR" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "service smoke: all green"
