#!/bin/sh
# intra_smoke.sh — conservative-parallel determinism smoke: the same
# experiment table and the same chrome trace must be byte-identical
# between -intra 1 (polling devices caught up inline) and -intra 4
# (caught up on device stepper goroutines). Any horizon bug — a device
# advanced past an observation point, a grant reordering completions —
# shows up as a byte diff here before it can corrupt a real run. GOMAXPROCS is pinned
# above 1 so the stepper lanes are real even on single-core CI (the
# sweep.ClampIntra budget would otherwise keep the run serial and the
# comparison vacuous). Run as part of check.sh.
set -eu

TMPDIR_SMOKE="$(mktemp -d)"
cleanup() {
    status=$?
    rm -rf "$TMPDIR_SMOKE"
    exit "$status"
}
trap cleanup EXIT INT TERM

export GOMAXPROCS=4

echo "intra-smoke: building paperbench + nexsim"
go build -o "$TMPDIR_SMOKE/paperbench" ./cmd/paperbench
go build -o "$TMPDIR_SMOKE/nexsim" ./cmd/nexsim

# The per-experiment "(table4 in Nms)" footer is host wall-clock time
# and varies run to run; every simulated number above it must not.
strip_wall() { sed '/^([a-z0-9-]* in [0-9.]*[a-zµ]*s)$/d'; }

echo "intra-smoke: table4 with -intra 1"
"$TMPDIR_SMOKE/paperbench" -exp table4 -parallel 1 -intra 1 | strip_wall \
    >"$TMPDIR_SMOKE/serial.txt"
echo "intra-smoke: table4 with -intra 4"
"$TMPDIR_SMOKE/paperbench" -exp table4 -parallel 1 -intra 4 | strip_wall \
    >"$TMPDIR_SMOKE/intra.txt"
if ! diff -u "$TMPDIR_SMOKE/serial.txt" "$TMPDIR_SMOKE/intra.txt"; then
    echo "intra-smoke: FAIL -intra 4 changed table4 output" >&2
    exit 1
fi
echo "intra-smoke: table4 byte-identical"

# Chrome trace byte-identity on a multi-device accelerator benchmark:
# trace spans record (component, virtual-time) tuples in emission
# order, so any schedule divergence reorders or changes them.
"$TMPDIR_SMOKE/nexsim" -bench jpeg-mt.4 -host nex -accel dsim \
    -intra 1 -chrome-trace "$TMPDIR_SMOKE/serial.trace" >/dev/null
"$TMPDIR_SMOKE/nexsim" -bench jpeg-mt.4 -host nex -accel dsim \
    -intra 4 -chrome-trace "$TMPDIR_SMOKE/intra.trace" >/dev/null
if ! cmp -s "$TMPDIR_SMOKE/serial.trace" "$TMPDIR_SMOKE/intra.trace"; then
    echo "intra-smoke: FAIL chrome trace differs between -intra 1 and -intra 4" >&2
    exit 1
fi
echo "intra-smoke: chrome trace byte-identical"
echo "intra-smoke: PASS"
