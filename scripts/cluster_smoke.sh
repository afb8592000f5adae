#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the cluster tier over real
# TCP sockets (the in-process coverage lives in internal/cluster). It
# proves the four headline claims of the sharded serving layer:
#
#   1. Routing is transparent: a sweep through simrouter returns bodies
#      byte-identical to the same sweep against a single simd, because
#      content-addressed specs make results self-certifying on any shard.
#   2. Placement is sticky: a second pass through the router lands every
#      spec on the shard that already holds its result — zero new engine
#      runs, all cache hits, proved by the shards' own counters.
#   3. The cluster survives a shard lost mid-run: after kill -9 on the
#      busiest shard, an in-flight batch of fresh specs still completes
#      via hedged failover, the sweep the router has seen twice is
#      answered byte-identically from its edge cache (no forward, so no
#      failover), the dead shard is marked down by health probes, and
#      the duplicate-answer determinism probe records zero mismatches.
#   4. A restarted shard is re-admitted through probation automatically.
#
# Run as `make cluster-smoke`.
set -eu

TMPDIR_SMOKE="$(mktemp -d)"
SOLO_PID="" S0_PID="" S1_PID="" S2_PID="" ROUTER_PID=""
cleanup() {
    status=$?
    for pid in "$ROUTER_PID" "$S0_PID" "$S1_PID" "$S2_PID" "$SOLO_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$TMPDIR_SMOKE"
    exit "$status"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: FAIL $1" >&2
    shift
    for f in "$@"; do
        echo "--- $f" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

# wait_portfile <file> <pid> <what>: wait up to ~5s for a daemon to
# write its bound address.
wait_portfile() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$3 never wrote $1" "$TMPDIR_SMOKE"/*.log
        kill -0 "$2" 2>/dev/null || fail "$3 exited early" "$TMPDIR_SMOKE"/*.log
        sleep 0.05
    done
}

echo "cluster-smoke: building simd and simrouter"
go build -o "$TMPDIR_SMOKE/simd" ./cmd/simd
go build -o "$TMPDIR_SMOKE/simrouter" ./cmd/simrouter

# A single-node simd is the reference for byte-identical routed results.
"$TMPDIR_SMOKE/simd" -addr 127.0.0.1:0 -portfile "$TMPDIR_SMOKE/solo.addr" \
    2>"$TMPDIR_SMOKE/solo.log" &
SOLO_PID=$!

# Three shards, each announcing its identity on /metrics.
"$TMPDIR_SMOKE/simd" -addr 127.0.0.1:0 -shard-id shard0 \
    -portfile "$TMPDIR_SMOKE/s0.addr" 2>"$TMPDIR_SMOKE/s0.log" &
S0_PID=$!
"$TMPDIR_SMOKE/simd" -addr 127.0.0.1:0 -shard-id shard1 \
    -portfile "$TMPDIR_SMOKE/s1.addr" 2>"$TMPDIR_SMOKE/s1.log" &
S1_PID=$!
"$TMPDIR_SMOKE/simd" -addr 127.0.0.1:0 -shard-id shard2 \
    -portfile "$TMPDIR_SMOKE/s2.addr" 2>"$TMPDIR_SMOKE/s2.log" &
S2_PID=$!

wait_portfile "$TMPDIR_SMOKE/solo.addr" "$SOLO_PID" solo
wait_portfile "$TMPDIR_SMOKE/s0.addr" "$S0_PID" shard0
wait_portfile "$TMPDIR_SMOKE/s1.addr" "$S1_PID" shard1
wait_portfile "$TMPDIR_SMOKE/s2.addr" "$S2_PID" shard2
SOLO_ADDR="$(cat "$TMPDIR_SMOKE/solo.addr")"
ADDR0="$(cat "$TMPDIR_SMOKE/s0.addr")"
ADDR1="$(cat "$TMPDIR_SMOKE/s1.addr")"
ADDR2="$(cat "$TMPDIR_SMOKE/s2.addr")"

# Aggressive probe/hedge timings so mark-down and re-admit are visible
# within the smoke's patience instead of the production defaults. The
# decay interval is long instead: the edge cache admits on the hot
# tracker's count, which halves every interval, so a decay tick between
# a seed's two sightings would leave it forwarded, and step 3 counts on
# both passes admitting.
"$TMPDIR_SMOKE/simrouter" -addr 127.0.0.1:0 \
    -shards "$ADDR0,$ADDR1,$ADDR2" \
    -hedge-after 100ms -probe-interval 200ms -decay-interval 1h \
    -fail-threshold 2 -readmit-oks 2 \
    -portfile "$TMPDIR_SMOKE/router.addr" 2>"$TMPDIR_SMOKE/router.log" &
ROUTER_PID=$!
wait_portfile "$TMPDIR_SMOKE/router.addr" "$ROUTER_PID" simrouter
ROUTER_ADDR="$(cat "$TMPDIR_SMOKE/router.addr")"
echo "cluster-smoke: router on $ROUTER_ADDR fronting $ADDR0 $ADDR1 $ADDR2"

curl -fsS "http://$ROUTER_ADDR/healthz" >/dev/null

# router_metric <name>: one unlabeled counter off the router's /metrics.
router_metric() {
    curl -fsS "http://$ROUTER_ADDR/metrics" |
        awk -v n="$1" '$1 == n { print $2 }'
}

# shards_sum <name>: an unlabeled counter summed across all live shards.
shards_sum() {
    total=0
    for a in $ADDR0 $ADDR1 $ADDR2; do
        v="$(curl -fsS "http://$a/metrics" | awk -v n="$1" '$1 == n { print $2 }')"
        total=$((total + ${v:-0}))
    done
    echo "$total"
}

SEEDS="1 2 3 4 5 6"
spec_body() {
    printf '{"specs":[{"bench":"npb-ep.8","seed":%d,"epoch_ns":1000}],"wait":true}' "$1"
}

# --- 1. routed sweep is byte-identical to the single-node reference ---
for seed in $SEEDS; do
    spec_body "$seed" | curl -fsS -X POST -H 'Content-Type: application/json' \
        -d @- "http://$SOLO_ADDR/jobs" >"$TMPDIR_SMOKE/solo_$seed.json"
    spec_body "$seed" | curl -fsS -X POST -H 'Content-Type: application/json' \
        -d @- "http://$ROUTER_ADDR/jobs" >"$TMPDIR_SMOKE/pass1_$seed.json"
    cmp -s "$TMPDIR_SMOKE/solo_$seed.json" "$TMPDIR_SMOKE/pass1_$seed.json" ||
        fail "routed result for seed $seed differs from single-node simd" \
            "$TMPDIR_SMOKE/solo_$seed.json" "$TMPDIR_SMOKE/pass1_$seed.json"
done
echo "cluster-smoke: routed sweep byte-identical to single-node simd"

SUB1="$(shards_sum simserve_jobs_submitted)"
HITS1="$(shards_sum simserve_cache_hits)"

# --- 2. second pass: sticky placement means all cache hits -----------
for seed in $SEEDS; do
    spec_body "$seed" | curl -fsS -X POST -H 'Content-Type: application/json' \
        -d @- "http://$ROUTER_ADDR/jobs" >"$TMPDIR_SMOKE/pass2_$seed.json"
    cmp -s "$TMPDIR_SMOKE/pass1_$seed.json" "$TMPDIR_SMOKE/pass2_$seed.json" ||
        fail "second routed pass for seed $seed differs from first" \
            "$TMPDIR_SMOKE/pass1_$seed.json" "$TMPDIR_SMOKE/pass2_$seed.json"
done
SUB2="$(shards_sum simserve_jobs_submitted)"
HITS2="$(shards_sum simserve_cache_hits)"
[ "$SUB2" -eq "$SUB1" ] ||
    fail "second pass ran new engine jobs: submitted $SUB1 -> $SUB2"
[ $((HITS2 - HITS1)) -ge 6 ] ||
    fail "second pass hit the shard caches only $((HITS2 - HITS1)) times, want >= 6"
EDGE_ENTRIES="$(router_metric simrouter_edge_entries)"
[ "${EDGE_ENTRIES:-0}" -ge 6 ] ||
    fail "second pass admitted $EDGE_ENTRIES results to the router's edge cache, want >= 6"
echo "cluster-smoke: second pass all cache hits ($((HITS2 - HITS1)) hits, 0 new runs, $EDGE_ENTRIES admitted at the router)"

# --- 3. kill -9 the busiest shard mid-batch --------------------------
VICTIM_ADDR="$(curl -fsS "http://$ROUTER_ADDR/metrics" |
    awk -F'"' '/^simrouter_shard_forwards\{/ {
        split($3, a, " ");
        if (a[2] + 0 >= best) { best = a[2] + 0; victim = $2 }
    } END { print victim }')"
case "$VICTIM_ADDR" in
"$ADDR0") VICTIM_PID=$S0_PID VICTIM_SID=shard0 ;;
"$ADDR1") VICTIM_PID=$S1_PID VICTIM_SID=shard1 ;;
"$ADDR2") VICTIM_PID=$S2_PID VICTIM_SID=shard2 ;;
*) fail "could not identify the busiest shard (got '$VICTIM_ADDR')" ;;
esac

# Fresh specs (the router has never seen them, so its edge cache cannot
# answer): with 24 of them the victim is home to some.
FRESH_SEEDS="7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30"
BATCH='{"specs":['
sep=''
for seed in $FRESH_SEEDS; do
    BATCH="$BATCH$sep{\"bench\":\"npb-ep.8\",\"seed\":$seed,\"epoch_ns\":1000}"
    sep=','
done
BATCH="$BATCH],\"wait\":true}"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$BATCH" \
    "http://$SOLO_ADDR/jobs" >"$TMPDIR_SMOKE/solo_batch.json"

echo "cluster-smoke: kill -9 $VICTIM_SID ($VICTIM_ADDR) with a batch in flight"
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true

# Submit immediately: the router has not yet probed the corpse, so the
# victim's sub-batch is forwarded, fails, and must fail over or hedge.
curl -fsS -X POST -H 'Content-Type: application/json' -d "$BATCH" \
    "http://$ROUTER_ADDR/jobs" >"$TMPDIR_SMOKE/router_batch.json" ||
    fail "batch did not complete after shard kill" "$TMPDIR_SMOKE/router.log"
cmp -s "$TMPDIR_SMOKE/solo_batch.json" "$TMPDIR_SMOKE/router_batch.json" ||
    fail "post-kill batch differs from single-node reference" \
        "$TMPDIR_SMOKE/solo_batch.json" "$TMPDIR_SMOKE/router_batch.json"

FAILOVERS="$(router_metric simrouter_failovers)"
HEDGES_WON="$(router_metric simrouter_hedges_won)"
[ $((${FAILOVERS:-0} + ${HEDGES_WON:-0})) -ge 1 ] ||
    fail "batch completed but neither failover nor hedge fired (failovers=$FAILOVERS hedges_won=$HEDGES_WON)"
echo "cluster-smoke: batch completed via hedged failover (failovers=$FAILOVERS hedges_won=$HEDGES_WON)"

# The sweep both passes sent is hot at the router (seen twice, results
# admitted to its edge cache), and the victim — the shard with the most
# forwards — is home to part of it. The router answers all of it alone:
# byte-identical, no forward to fail over from — whether or not the
# probes have marked the corpse down yet.
for seed in $SEEDS; do
    spec_body "$seed" | curl -fsS -X POST -H 'Content-Type: application/json' \
        -d @- "http://$ROUTER_ADDR/jobs" >"$TMPDIR_SMOKE/pass3_$seed.json" ||
        fail "hot seed $seed not answered with its home shard dead" "$TMPDIR_SMOKE/router.log"
    cmp -s "$TMPDIR_SMOKE/pass1_$seed.json" "$TMPDIR_SMOKE/pass3_$seed.json" ||
        fail "edge-cached result for seed $seed differs from the first pass" \
            "$TMPDIR_SMOKE/pass1_$seed.json" "$TMPDIR_SMOKE/pass3_$seed.json"
done
[ "$(router_metric simrouter_failovers)" -eq "${FAILOVERS:-0}" ] ||
    fail "answering the hot sweep moved simrouter_failovers $FAILOVERS -> $(router_metric simrouter_failovers)"
EDGE_HITS="$(router_metric simrouter_edge_hits)"
[ "${EDGE_HITS:-0}" -ge 6 ] ||
    fail "hot sweep answered with simrouter_edge_hits=$EDGE_HITS, want >= 6"
echo "cluster-smoke: hot sweep answered from the edge cache with its home shard dead (edge_hits=$EDGE_HITS, no failover)"

# Health probes must mark the corpse down within a few intervals.
i=0
while [ "$(router_metric simrouter_marks_down)" -lt 1 ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "dead shard never marked down" "$TMPDIR_SMOKE/router.log"
    sleep 0.05
done
MISMATCHES="$(router_metric simrouter_probe_mismatches)"
[ "$MISMATCHES" -eq 0 ] ||
    fail "determinism probe saw $MISMATCHES cross-shard mismatches, want 0"
echo "cluster-smoke: dead shard marked down, determinism probe mismatches = 0"

# --- 4. restart the shard: probation, then automatic re-admission ----
"$TMPDIR_SMOKE/simd" -addr "$VICTIM_ADDR" -shard-id "$VICTIM_SID" \
    2>"$TMPDIR_SMOKE/${VICTIM_SID}_restart.log" &
VICTIM_PID=$!
case "$VICTIM_SID" in
shard0) S0_PID=$VICTIM_PID ;;
shard1) S1_PID=$VICTIM_PID ;;
shard2) S2_PID=$VICTIM_PID ;;
esac
i=0
until curl -fsS "http://$VICTIM_ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "restarted $VICTIM_SID never became healthy" \
        "$TMPDIR_SMOKE/${VICTIM_SID}_restart.log"
    sleep 0.05
done
i=0
until curl -fsS "http://$ROUTER_ADDR/metrics" |
    grep -q "^simrouter_shard_up{shard=\"$VICTIM_ADDR\"} 1$"; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "restarted shard never re-admitted" "$TMPDIR_SMOKE/router.log"
    sleep 0.05
done
[ "$(router_metric simrouter_readmits)" -ge 1 ] ||
    fail "shard is live again but readmits counter is 0"
echo "cluster-smoke: restarted shard re-admitted through probation"

# Graceful shutdown: SIGTERM must drain the router and remove its portfile.
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || fail "simrouter exited nonzero on SIGTERM" "$TMPDIR_SMOKE/router.log"
ROUTER_PID=""
[ ! -e "$TMPDIR_SMOKE/router.addr" ] || fail "router portfile not removed on drain"
echo "cluster-smoke: PASS"
