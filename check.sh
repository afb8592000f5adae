#!/bin/sh
# check.sh — the repository's tier-1 gate plus the style/determinism
# lints and the race-mode concurrency checks. `make check` runs this
# (after `make lint`, whose steps the first three lines mirror so that
# running check.sh directly enforces the same bar).
set -eux

# Style/determinism gate: gofmt-clean tree, vet-clean, and zero simlint
# findings (internal/analysis; DESIGN.md §5 — five local checkers plus
# the whole-program snapshot-drift, fault-site-registry, lane-safety,
# and hotpath-alloc invariants).
test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/simlint

# Findings-cache gate: cold-populate a fresh cache, warm-replay it,
# assert identical findings and a >=3x warm speedup (DESIGN.md §5.5).
sh scripts/lint_cache_smoke.sh

# No production source file over 900 lines (ROADMAP: "no 900-line
# files"); a file that big is several concerns that want separate files.
find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
	awk '$2 != "total" && $1 > 900 { print "over 900 lines:", $2, $1; bad = 1 } END { exit bad }'

# One host kit (DESIGN.md §4): the stepper lanes belong to the device
# complex, so only internal/hostkit imports parsim; and app.Env has one
# implementation (a second SlipStream method under internal/ is a second
# Env growing back in an engine).
test -z "$(grep -rl '"nexsim/internal/parsim"' internal cmd --include='*.go' |
	grep -v -e _test.go -e /testdata/ -e '^internal/hostkit/')"
test "$(grep -rl '^func (.*) SlipStream(fn func())' internal --include='*.go' |
	grep -v -e _test.go -e /testdata/ | wc -l)" -le 1

# One device kit (DESIGN.md §4.4): the register switch and the IRQ
# predicate each exist in exactly one production file (acceltest's
# scripted fake is test scaffolding), no model or workload guards a memo
# of its own with a mutex, and the kit stays a leaf that only the device
# side of the tree imports.
test "$(grep -rl 'case RegStatus:' internal examples --include='*.go' |
	grep -v -e _test.go -e /testdata/ -e /acceltest/ | wc -l)" -eq 1
test "$(grep -rlE '^func \(.*\) MayRaiseIRQ' internal examples --include='*.go' |
	grep -v -e _test.go -e /testdata/ -e /acceltest/ | wc -l)" -eq 1
test -z "$(grep -rl 'sync\.Mutex' internal/accel/jpeg internal/accel/vta internal/accel/protoacc internal/workloads --include='*.go')"
test -z "$(grep -rl '"nexsim/internal/accel/devkit"' . --include='*.go' |
	grep -v -e '^\./internal/accel/' -e '^\./internal/dsim/' -e '^\./internal/workloads/' -e '^\./examples/')"

# One run path (DESIGN.md §3): inside internal/experiments a Spec becomes
# a core.Config in one place (Lower, spec.go), a Config becomes a System
# in one file (the executor's chokepoint and the prefix warm-up,
# checkpoint.go), and the intra-run worker count is set once.
test -z "$(grep -l 'core\.Config{' internal/experiments/*.go | grep -v -e _test.go -e '/spec\.go$')"
test -z "$(grep -l 'core\.Build(' internal/experiments/*.go | grep -v -e _test.go -e '/checkpoint\.go$')"
test "$(ls internal/experiments/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -c 'IntraParallel')" -eq 1

go build ./...
go test ./...

# CPU-model kernel gates (DESIGN.md §4.1): the kernel and cachesim
# benchmarks compile and execute once, the L1-hit probe is still inlined
# into the memory pass (it sits at the edge of the inliner's budget, and
# a non-inlined call per load/store gives the kernel's gain back), and
# ten seconds of fuzzing find no segment on which the kernel and the
# reference loop disagree.
go test -run '^$' -bench 'Duration|Hit' -benchtime 1x ./internal/cpu ./internal/cachesim
go build -gcflags=-m ./internal/cpu 2>&1 | grep -q 'inlining call to cachesim.(\*Cache).Hit'
go test -run '^$' -fuzz FuzzDurationMatchesReference -fuzztime 10s ./internal/cpu

# DMA-path gates (DESIGN.md §4.2): the stream and page benchmarks compile
# and execute once, ten seconds of fuzzing find no operation sequence
# on which the way-major cache (its plane growing mid-trace) and the
# set-major reference disagree, and released systems retain a bounded
# heap — the footprint test on its own, then one build/run/release of the
# eight-device bench with its B/op.
go test -run '^$' -bench 'DMAStream|PageTouch' -benchtime 1x ./internal/cachesim ./internal/mem
go test -run '^$' -fuzz FuzzCacheMatchesReference -fuzztime 10s ./internal/cachesim
go test -count=1 -run TestReleasedSystemsRetainBoundedHeap -bench BuildRelease -benchtime 1x ./internal/core

# Functional-track gates (DESIGN.md §4.3): the staging, plan-key and GEMM
# benchmarks compile and execute once (PlanKey fails if a key sums its
# operand pages more than once), ten seconds of fuzzing find no op
# sequence on which the page-mapped, copy-on-write memory and the flat
# byte-map reference disagree, ten more find no instruction sequence
# after which vta.Core's packed GEMM and per-op ALU loops leave other
# accumulators or another error than the loops they replaced, and
# mem.Hash stays the accelerators' only content hash (each used to carry
# its own fnv64).
go test -run '^$' -bench 'StageOperands|PlanKey|Gemm' -benchtime 1x ./internal/workloads ./internal/accel/vta
go test -run '^$' -fuzz FuzzMemoryMatchesReference -fuzztime 10s ./internal/mem
go test -run '^$' -fuzz FuzzGemmMatchesReference -fuzztime 10s ./internal/accel/vta
test -z "$(grep -rl '^func fnv64' internal/accel --include='*.go' | grep -v _test.go)"

# Trust-boundary decoders (DESIGN.md §6, §11): ten seconds each of garbage
# at the job API's submit decoder, at the hot-set promotion path and at
# the router's edge-cache admission (both behind the one
# jobapi.VerifyResult) must produce errors, never a panic or an accepted
# entry its content address does not vouch for.
go test -run '^$' -fuzz FuzzDecodeSubmit -fuzztime 10s ./internal/jobapi
go test -run '^$' -fuzz FuzzPromote -fuzztime 10s ./internal/simserve
go test -run '^$' -fuzz FuzzEdgeAdmit -fuzztime 10s ./internal/cluster

# Serving-path gates (DESIGN.md §11): the router-submit benchmark compiles
# and executes once on both paths (answered from the edge cache,
# forwarded to a shard-cache hit), and one verifier decides what may
# enter a cache that did not compute it.
go test -run '^$' -bench RouterSubmit -benchtime 1x ./internal/cluster
test -z "$(grep -rn 'func verifyPromotion' internal --include='*.go')"

# Simulated-thread switch (DESIGN.md §4): the benchmark compiles and
# executes once; its zero-allocation and lifecycle tests (kill, panic,
# cross-goroutine resume) run in the passes above and below.
go test -run '^$' -bench Switch -benchtime 1x ./internal/coro

# Race-mode pass over the full tree (cmd/ and examples/ included, not
# just internal/): the sweep executor, the engines' shared memo caches,
# the simserve worker pool, and now the parsim device-stepper lanes are
# the intended concurrency; racing everything guards against new
# goroutines sneaking in past the stray-goroutine checker's allowlist.
# The deterministic-output tests (TestParallelOutputByteIdentical,
# TestIntraByteIdentity, TestRepeatedRunByteIdentical) run under race
# here too.
go test -race ./...

# Kit conformance under race (DESIGN.md §4.4): the one table over all six
# device models and the sketch device, and the shared memo's concurrent
# getters, uncached.
go test -race -count=1 -run 'KitConformance|Memo' ./internal/accel/devkit ./examples/sketch-accel

# Conservative-parallel determinism smoke: table4 and a multi-device
# chrome trace must be byte-identical between -intra 1 and -intra 4
# (GOMAXPROCS pinned so stepper lanes are real on single-core CI).
sh scripts/intra_smoke.sh

# Checkpoint determinism smoke: the same experiment with and without
# -checkpoints must print byte-identical output (forked runs restore
# engine snapshots; any snapshot/replay drift shows up as a byte diff).
# Its final case re-runs with -checkpoints -intra 2, proving snapshots
# compose with parallel intra-run mode.
sh scripts/ckpt_smoke.sh

# End-to-end serving smoke: simd on an ephemeral port, a cheap job
# submitted twice, byte-identical cache hit on the resubmit (verified
# against /metrics), graceful SIGTERM drain and portfile removal.
sh scripts/serve_smoke.sh

# Crash-safety smoke: simd with -state-dir answers a job, dies by
# SIGKILL, restarts on the same state directory, and must serve the
# same spec byte-identically from its recovered journal without
# re-running the engine. The daemon runs with -intra 2, so recovery is
# exercised with device stepper lanes live.
sh scripts/crash_smoke.sh

# Cluster smoke: three simd shards behind simrouter over real sockets.
# A routed sweep must be byte-identical to a single-node simd, a second
# pass must be all cache hits (zero new engine runs, per the shards'
# counters), a shard killed with SIGKILL mid-batch must not lose the
# batch (hedged failover, zero determinism-probe mismatches, mark-down
# by health probes), and restarting the shard must re-admit it.
sh scripts/cluster_smoke.sh

# Wall-time regression gating is deliberately NOT part of this tier-1
# gate: wall clocks are machine- and load-dependent. Performance is
# measured by the standing benchmark, `bash bench/run.sh`.
