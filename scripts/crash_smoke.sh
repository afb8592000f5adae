#!/bin/sh
# crash_smoke.sh — crash-safety smoke test of the simd daemon: start
# simd with -state-dir, answer a job, kill the process with SIGKILL (no
# drain, no cleanup — the crash case), restart on the same state
# directory, and assert the new incarnation serves the same spec
# byte-identically from its recovered journal without re-running the
# engine. Run as `make crash-smoke`; check.sh runs it too.
set -eu

TMPDIR_SMOKE="$(mktemp -d)"
SIMD_PID=""
cleanup() {
    status=$?
    if [ -n "$SIMD_PID" ] && kill -0 "$SIMD_PID" 2>/dev/null; then
        kill -9 "$SIMD_PID" 2>/dev/null || true
        wait "$SIMD_PID" 2>/dev/null || true
    fi
    rm -rf "$TMPDIR_SMOKE"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "crash-smoke: building simd"
go build -o "$TMPDIR_SMOKE/simd" ./cmd/simd

STATEDIR="$TMPDIR_SMOKE/state"
PORTFILE="$TMPDIR_SMOKE/addr"

# start_simd: launch a daemon incarnation and wait for its address.
# -intra 2 runs each simulation with a device stepper lane (GOMAXPROCS
# raised past the clamp's single-core budget), proving WAL recovery and
# byte-identical replay compose with intra-run parallelism.
start_simd() {
    : >"$PORTFILE"
    GOMAXPROCS=4 "$TMPDIR_SMOKE/simd" -addr 127.0.0.1:0 -portfile "$PORTFILE" \
        -state-dir "$STATEDIR" -workers 2 -intra 2 \
        2>>"$TMPDIR_SMOKE/simd.log" &
    SIMD_PID=$!
    i=0
    while [ ! -s "$PORTFILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash-smoke: simd never wrote $PORTFILE" >&2
            cat "$TMPDIR_SMOKE/simd.log" >&2 || true
            exit 1
        fi
        if ! kill -0 "$SIMD_PID" 2>/dev/null; then
            echo "crash-smoke: simd exited early" >&2
            cat "$TMPDIR_SMOKE/simd.log" >&2 || true
            exit 1
        fi
        sleep 0.05
    done
    ADDR="$(cat "$PORTFILE")"
}

start_simd
echo "crash-smoke: simd up on $ADDR (state dir $STATEDIR)"

BODY='{"specs":[{"bench":"npb-ep.8","epoch_ns":1000}],"wait":true}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
    "http://$ADDR/jobs" >"$TMPDIR_SMOKE/before.json"

# Submit a second, distinct spec asynchronously and kill immediately:
# it is journaled as submitted, and depending on timing dies queued,
# running, or just-answered. All three must converge after restart —
# recovery either replays its done record or re-runs it.
ASYNC='{"specs":[{"bench":"jpeg-mt.8","epoch_ns":1000,"seed":7}]}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$ASYNC" \
    "http://$ADDR/jobs" >"$TMPDIR_SMOKE/async.json"
ASYNC_ID="$(sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p' "$TMPDIR_SMOKE/async.json")"
test -n "$ASYNC_ID" || {
    echo "crash-smoke: FAIL no job id in async response" >&2
    cat "$TMPDIR_SMOKE/async.json" >&2
    exit 1
}
echo "crash-smoke: first job answered, second in flight; killing simd with SIGKILL"

# The crash: no drain, no WAL close, no portfile cleanup.
kill -9 "$SIMD_PID"
wait "$SIMD_PID" 2>/dev/null || true
SIMD_PID=""

test -s "$STATEDIR/results.wal" || {
    echo "crash-smoke: FAIL no journal survived the crash" >&2
    exit 1
}

start_simd
echo "crash-smoke: restarted on $ADDR"

curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" \
    "http://$ADDR/jobs" >"$TMPDIR_SMOKE/after.json"

if ! cmp -s "$TMPDIR_SMOKE/before.json" "$TMPDIR_SMOKE/after.json"; then
    echo "crash-smoke: FAIL recovered response differs from pre-crash run" >&2
    diff "$TMPDIR_SMOKE/before.json" "$TMPDIR_SMOKE/after.json" >&2 || true
    exit 1
fi
echo "crash-smoke: recovered response byte-identical to pre-crash run"

# The in-flight job must converge to done: either its result was
# journaled before the kill and replayed, or its submit record made the
# new incarnation re-run it.
i=0
while :; do
    STATUS="$(curl -fsS "http://$ADDR/jobs/$ASYNC_ID" |
        sed -n 's/.*"status":"\([a-z]*\)".*/\1/p')"
    [ "$STATUS" = "done" ] && break
    if [ "$STATUS" = "failed" ]; then
        echo "crash-smoke: FAIL recovered in-flight job failed" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "crash-smoke: FAIL in-flight job never recovered (status '$STATUS')" >&2
        exit 1
    fi
    sleep 0.05
done
echo "crash-smoke: in-flight job recovered to done after restart"

# Journal accounting: both pre-crash jobs were recovered — each either
# as a replayed result or as a re-run pending submit (the in-flight one
# dies queued, running, or answered depending on timing; all converge).
# The answered spec's resubmit above must have been a cache hit, not a
# fresh engine run.
curl -fsS "http://$ADDR/metrics" >"$TMPDIR_SMOKE/metrics.txt"
metric() { sed -n "s/^$1 \([0-9][0-9]*\)\$/\1/p" "$TMPDIR_SMOKE/metrics.txt"; }
RESULTS="$(metric simserve_wal_recovered_results)"
PENDING="$(metric simserve_wal_recovered_pending)"
if [ "$((RESULTS + PENDING))" -ne 2 ] || [ "$RESULTS" -lt 1 ]; then
    echo "crash-smoke: FAIL journal recovered $RESULTS results + $PENDING pending, want 2 total" >&2
    cat "$TMPDIR_SMOKE/metrics.txt" >&2
    exit 1
fi
if [ "$(metric simserve_cache_hits)" -lt 1 ]; then
    echo "crash-smoke: FAIL resubmit of the answered spec missed the recovered cache" >&2
    cat "$TMPDIR_SMOKE/metrics.txt" >&2
    exit 1
fi
echo "crash-smoke: journal recovered $RESULTS result(s) + $PENDING pending job(s)"

# Graceful exit of the recovered daemon still works.
kill -TERM "$SIMD_PID"
if ! wait "$SIMD_PID"; then
    echo "crash-smoke: FAIL recovered simd exited nonzero on SIGTERM" >&2
    cat "$TMPDIR_SMOKE/simd.log" >&2 || true
    exit 1
fi
SIMD_PID=""
echo "crash-smoke: PASS"
