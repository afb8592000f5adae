#!/bin/sh
# check.sh — the repository's tier-1 gate plus the style/determinism
# lints and the race-mode concurrency checks. `make check` runs this;
# its first three lines are `make lint`'s steps.
set -eux

# Style/determinism gate: gofmt-clean tree, vet-clean, and zero simlint
# findings (internal/analysis; DESIGN.md §5 — eight checkers, seven run
# one package at a time and test-only-export reads one module-wide
# index of references).
test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/simlint

# No production source file over 900 lines (ROADMAP: "no 900-line
# files"); a file that big is several concerns that want separate files.
find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + |
	awk '$2 != "total" && $1 > 900 { print "over 900 lines:", $2, $1; bad = 1 } END { exit bad }'

# One host kit (DESIGN.md §4): app.Env has one implementation (a second
# SlipStream method under internal/ is a second Env growing back in an
# engine), and so has the engine shell: one production file creates
# threads (hostkit.Shell.Spawn, the only coro.NewThread call), and no
# engine package declares a Reap of its own instead of the shell's.
test "$(grep -rl '^func (.*) SlipStream(fn func())' internal --include='*.go' |
	grep -v -e _test.go -e /testdata/ | wc -l)" -le 1
test "$(grep -rl 'coro\.NewThread(' internal --include='*.go' |
	grep -v -e _test.go -e /testdata/ | wc -l)" -le 1
test -z "$(grep -rlE '^func \(.*\) Reap\(' internal/nex internal/exacthost --include='*.go' | grep -v _test.go)"

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

# One DSim mechanism (DESIGN.md §4): a device model's Advance is the
# kit's, devkit.Clock's for an RTL-style model and dsim.Base's for an
# LPN model, so no model schedules its performance track by hand.
test -z "$(grep -rlE '^func \(.*\) Advance\(' internal/accel internal/dsim examples --include='*.go' |
	grep -v -e _test.go -e /acceltest/ -e '^internal/accel/devkit/clock\.go$' -e '^internal/dsim/dsim\.go$')"

# One RTL mechanism (DESIGN.md §4.4): an RTL-style model's units are
# devkit.Units its Clock owns, so the kit answers Busy and NextEvent —
# devkit.Clock for an RTL-style model, dsim.Base for an LPN model — and
# a model writes only its Step.
test -z "$(grep -rlE '^func \(.*\) (Busy|NextEvent)\(' internal/accel internal/dsim examples --include='*.go' |
	grep -v -e _test.go -e /acceltest/ -e '^internal/accel/devkit/clock\.go$' -e '^internal/dsim/dsim\.go$')"

# One timing table per family (DESIGN.md §4.4): a work item's cycles are
# computed once, by its family's plan (jpeg's taskRows, protoacc's
# buildPlan), and both the LPN and the RTL model read them, so outside
# the plan file no production file of either family names a per-item
# timing constant.
test -z "$(grep -rlwE 'huffBitsPerCycle|idctCyclesBlock|busBytesPerCycle|scalarBaseCycles|dataCopyBytesCyc|outWriteBytesCyc' internal/accel/jpeg internal/accel/protoacc --include='*.go' |
	grep -v -e _test.go -e '^internal/accel/jpeg/plan\.go$' -e '^internal/accel/protoacc/plan\.go$')"

# One DSim DMA path (DESIGN.md §4): every DSim model replays the DMAs of
# its own memoized plan from its LPN's stages, so no production file
# declares the per-tag DMA FIFOs that used to be a second way, their
# recorder, or their emitter. (trace.Recorder, the span recorder, is
# another type.)
test -z "$(grep -rnE '^(type|func( \([^)]*\))?) (Recorder|EmitDMA|ReadDMA|WriteDMA|DMARec)\b' internal examples --include='*.go' |
	grep -v -e '_test\.go:' -e '/testdata/' -e '^internal/trace/trace\.go:[0-9]*:type Recorder struct')"

# One device contract (DESIGN.md §4.4): the host complex is the only
# owner of catch-up, so no device model, kit type or example calls a
# device's Advance (the one .Advance( left is dsim.Base running its LPN),
# and what a host calls on a device is accel.Device itself, so no
# production file finds SetHost or MayRaiseIRQ by an anonymous-interface
# assertion or unwraps a channel adapter.
test -z "$(grep -rn '\.Advance(' internal/accel internal/dsim examples --include='*.go' |
	grep -v -e '_test\.go:' -e /acceltest/ -e '^internal/dsim/dsim\.go:[0-9]*:.*b\.Net\.Advance(t)')"
test -z "$(grep -rnE 'interface\{ ?(MayRaiseIRQ|SetHost)|Unwrap\(\) accel\.Device' . --include='*.go' |
	grep -v -e '_test\.go:' -e /testdata/)"

# Test scaffolding stays out of production: acceltest imports testing, so
# only _test.go files and examples/ may import it.
test -z "$(grep -rl '"nexsim/internal/accel/acceltest"' . --include='*.go' |
	grep -v -e '_test\.go$' -e '^\./examples/')"

# One run path (DESIGN.md §3): inside internal/experiments a Spec becomes
# a core.Config in one place (Lower, spec.go), a Config becomes a System
# in one file (the executor's chokepoint and the prefix warm-up,
# checkpoint.go).
test -z "$(grep -l 'core\.Config{' internal/experiments/*.go | grep -v -e _test.go -e '/spec\.go$')"
test -z "$(grep -l 'core\.Build(' internal/experiments/*.go | grep -v -e _test.go -e '/checkpoint\.go$')"

# One way to serve a job (DESIGN.md §6, §7): checkpoint forking is a
# library mechanism no command or server switches on, and the router is
# the only hedger (a shard that races a job against itself would be a
# second one).
test -z "$(grep -rl 'SetCheckpoints(' cmd internal/simserve)"
test -z "$(grep -rlE 'HedgeAfter|hedge-after' internal cmd scripts examples bench |
	grep -v -e '^internal/cluster/' -e '^cmd/simrouter/' -e '^scripts/cluster_smoke\.sh$')"

# One thread per run (DESIGN.md §10): a simulation runs its host engine
# and its devices on one goroutine. internal/parsim is gone, and outside
# bench/ no production file mentions the three stubs bench/ still
# compiles against (experiments.SetIntra, core.Config.IntraParallel,
# core.Result.DeviceWall) except where they are declared.
test ! -e internal/parsim
test -z "$(grep -rnwE 'SetIntra|IntraParallel|DeviceWall' . --include='*.go' |
	grep -v -e '_test\.go:' -e '/testdata/' -e '^\./bench/' -e '^[^:]*:[0-9]*:[[:space:]]*//' |
	grep -v -e '^\./internal/experiments/experiments\.go:[0-9]*:func SetIntra(int) {}$' \
		-e '^\./internal/core/core\.go:[0-9]*:	IntraParallel int$' \
		-e '^\./internal/core/core\.go:[0-9]*:	DeviceWall time\.Duration$')"

# A checkpoint is the host's (DESIGN.md §7): a blob is the fingerprint
# of a halted NEX engine, and a restore re-runs the prefix. Among
# production files only internal/experiments (the prefix store) imports
# internal/checkpoint, and no production file declares a snapshot
# encoder, a state decoder or a yield-journal recorder (the bracket in
# the last name keeps this file out of a plain search for it), so no
# saved engine or device state grows back into a blob.
test -z "$(grep -rl '"nexsim/internal/checkpoint"' . --include='*.go' |
	grep -v -e _test.go -e /testdata/ -e '^\./internal/experiments/')"
test -z "$(grep -rlE '^func (\(.*\) )?(SnapshotTo|RestoreFrom|record[Y]ield)\(' . --include='*.go' |
	grep -v -e _test.go -e /testdata/)"

# RTL models step every busy cycle (DESIGN.md §4.4): no production file
# declares a NextStep method, the skip-ahead the device clock once took.
test -z "$(grep -rlE '^func \(.*\) NextStep\(' . --include='*.go' |
	grep -v -e _test.go -e /testdata/)"

# Mechanisms no run reached stay deleted (DESIGN.md §8): a trap is the
# engines' OpInteract, not a memory-protection hook, so no production
# file declares Protect or the faulting accessors; no LPN transition has
# a guard nor a place a ready-count memo; and no eventq event is
# cancelled.
test -z "$(grep -rlE '^func (\(.*\) )?(Protect|ReadFaulting|WriteFaulting|ReadyLen)\(|^type GuardFunc ' . --include='*.go' |
	grep -v -e _test.go -e /testdata/)"
test -z "$(grep -rlE '^func (\(.*\) )?Cancel\(' internal/eventq --include='*.go' | grep -v _test.go)"

# Schedulers scan what they hold (DESIGN.md §4): no LPN heap, NEX active list, cached wake or tick op.
test -z "$(grep -rlE '^func (\(.*\) )?(Seal|markDirty|flushDirty|heap[A-Za-z]*)\(' internal/lpn --include='*.go' | grep -v _test.go)"
test -z "$(grep -rlE '^func (\(.*\) )?(ensureActive|maybeCompact|setWake)\(' internal/nex --include='*.go' | grep -v _test.go)"
test -z "$(grep -rlE '\bOpTick\b|^func \(.*\) Tick\(\)|^[[:space:]]+Tick\(\)$' . --include='*.go' | grep -v -e _test.go -e /testdata/)"

# Thread state has one writer (DESIGN.md §4): a time warp writes the
# thread's own hostkit.ThreadState, so no production file mentions a warp
# request or its kinds or declares an engine-side Warp.Handle, and NEX's
# fair policy keeps its counts in the thread records, not in a policy
# type with maps keyed by thread ID.
test -z "$(grep -rlE '\b(OpWarp|WarpKind)\b|^func \(w \*Warp\) Handle\(' . --include='*.go' | grep -v -e _test.go -e /testdata/)"
test -z "$(grep -rlE '^type FairPolicy |^func NewFairPolicy\(' internal/nex --include='*.go' | grep -v _test.go)"

# One thread protocol (DESIGN.md §4): what Park, Unpark and Spawn mean is
# hostkit's, and an engine keeps only its wake rule. No production file
# mentions the Unpark and Spawn requests or the spawn handshake field
# they needed, and outside internal/hostkit no code line writes a
# thread's parked or pending flag. A WAL record's specs slice is called
# pending too; its write is exempt by line.
test -z "$(grep -rlwE 'OpUnpark|OpSpawn|Spawned' . --include='*.go' | grep -v -e _test.go -e /testdata/)"
test -z "$(grep -rnE '\.(parked|pending)[[:space:]]*=[^=]' internal cmd examples --include='*.go' |
	grep -v -e '_test\.go:' -e /testdata/ -e '^internal/hostkit/' -e '^[^:]*:[0-9]*:[[:space:]]*//' |
	grep -v -e '^internal/simserve/wal\.go:[0-9]*:[[:space:]]*rec\.pending = append(rec\.pending, ')"

# One interrupt path (DESIGN.md §4): hostkit latches, delivers and waits
# on a device's interrupt, which the host names by the device's binding,
# and an engine keeps only when it delivers and its wake rule. No
# production file mentions the interrupt-wait request, a vector constant
# or the engines' former latches and delivery loops, and outside
# internal/hostkit no code line declares a slice, map or counter named
# for interrupts (NEX's Stats.IRQs, which reads the shell's count, is
# exempt by line; acceltest is test scaffolding).
test -z "$(grep -rlwE 'OpWaitIRQ|irqPend|pendingIRQ|deliverIRQs|IRQVector' . --include='*.go' | grep -v -e _test.go -e /testdata/)"
test -z "$(grep -rnE '^[[:space:]]*(var[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]+(\[\]|map\[)[^/]*([Ii]rq|IRQ)|^[[:space:]]*(var[[:space:]]+)?[A-Za-z_]*([Ii]rq|IRQ)[A-Za-z0-9_]*[[:space:]]+(\[\]|map\[|u?int)' internal cmd examples --include='*.go' |
	grep -v -e '_test\.go:' -e /testdata/ -e /acceltest/ -e '^internal/hostkit/' |
	grep -v -e '^internal/nex/nex\.go:[0-9]*:[[:space:]]*IRQs[[:space:]]*int64 // interrupts delivered$')"

# Results that do not depend on the CPU (DESIGN.md §5): Go may fuse
# x*y + z into one FMA instruction, which rounds once instead of twice.
# It does on arm64 and does not on amd64, so an arm64 shard could
# compute other bytes for the same spec ID. Cross-compile every command
# for arm64 and fail on any fused instruction anywhere; a float64(x*y)
# conversion is the fix. (`make golden-386` runs the goldens on a 32-bit
# build.)
fma="$(mktemp)"
trap 'rm -f "$fma"' EXIT
GOARCH=arm64 go build -o /dev/null -gcflags='nexsim/...=-S' ./cmd/... >"$fma" 2>&1
test -z "$(awk '/^[^ \t]/ { fn = ($2 == "STEXT") ? $1 : "" }
	/\t(FMADD|FMSUB|FNMADD|FNMSUB)[DS]\t/ { print fn ": " $0 }' "$fma")"

go build ./...
go test ./...

# README's first command: the quickstart runs end to end and leaves
# decoded pixels in simulated memory (a count of 0 means the program,
# the driver or the device stopped writing them).
go run ./examples/quickstart | grep -Eq '^decoded pixels in memory: +[1-9][0-9]*/'

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

# Functional-track gates (DESIGN.md §4.3): the staging, plan-key, GEMM
# and codec benchmarks compile and execute once (PlanKey fails if a key
# sums its operand pages more than once; SynthImage, Encode and Decode
# time the corpus synthesizer and the JPEG codec next to the functions
# they replaced, on the catalog's corpora and a Div2K-size image), ten
# seconds of fuzzing find no op sequence on which the page-mapped,
# copy-on-write memory and the flat byte-map reference disagree, ten
# more find no instruction sequence after which vta.Core's packed GEMM
# and per-op ALU loops leave other accumulators or another error than
# the loops they replaced, ten each find no bytes on which the JPEG
# decoder returns another raster, DecodeStats or error than the decoder
# it replaced and no image the encoder codes differently, and mem.Hash
# stays the accelerators' only content hash (each used to carry its own
# fnv64).
go test -run '^$' -bench 'StageOperands|PlanKey|Gemm|SynthImage|Encode|Decode' -benchtime 1x ./internal/workloads ./internal/accel/vta ./internal/accel/jpeg
go test -run '^$' -fuzz FuzzMemoryMatchesReference -fuzztime 10s ./internal/mem
go test -run '^$' -fuzz FuzzGemmMatchesReference -fuzztime 10s ./internal/accel/vta
go test -run '^$' -fuzz FuzzDecodeMatchesReference -fuzztime 10s ./internal/accel/jpeg
go test -run '^$' -fuzz FuzzEncodeMatchesReference -fuzztime 10s ./internal/accel/jpeg
test -z "$(grep -rl '^func fnv64' internal/accel --include='*.go' | grep -v _test.go)"

# Trust-boundary decoders (DESIGN.md §6, §11): two remain, the job API's
# submit decoder and the router's edge-cache admission, which sits behind
# jobapi.VerifyResult. Ten seconds each of garbage must produce errors,
# never a panic or an accepted entry its content address does not vouch
# for.
go test -run '^$' -fuzz FuzzDecodeSubmit -fuzztime 10s ./internal/jobapi
go test -run '^$' -fuzz FuzzEdgeAdmit -fuzztime 10s ./internal/cluster
# The former hot-set route stays shut: ten seconds of garbage POSTed to it
# are refused and reach no shard's cache.
go test -run '^$' -fuzz FuzzPromote -fuzztime 10s ./internal/simserve

# Two cache tiers (DESIGN.md §11): the router's edge cache and the
# shards' result caches. No production file registers the hot-set push
# route, declares the shard's Promote or the push's wire type, or
# configures a push (RouterConfig.HotSetK, simrouter's hotset-k flag).
test -z "$(grep -rnE '/cluster/hotset|^func \(s \*Server\) Promote\(|HotsetPush|HotSetK|"hotset-k"' . --include='*.go' |
	grep -v -e '_test\.go:' -e '/testdata/')"

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
# just internal/): the sweep executor, the engines' shared memo caches
# and the simserve worker pool are the intended concurrency; racing
# everything guards against new goroutines sneaking in past the
# stray-goroutine checker's allowlist. The deterministic-output tests
# (TestParallelOutputByteIdentical, TestRepeatedRunByteIdentical) run
# under race here too.
go test -race ./...

# Kit conformance under race (DESIGN.md §4.4): the one table over all six
# device models and the sketch device, and the shared memo's concurrent
# getters, uncached.
go test -race -count=1 -run 'KitConformance|Memo' ./internal/accel/devkit ./examples/sketch-accel

# End-to-end serving smoke: simd on an ephemeral port, a cheap job
# submitted twice, byte-identical cache hit on the resubmit (verified
# against /metrics), graceful SIGTERM drain and portfile removal.
sh scripts/serve_smoke.sh

# Crash-safety smoke: simd with -state-dir answers a job, dies by
# SIGKILL, restarts on the same state directory, and must serve the
# same spec byte-identically from its recovered journal without
# re-running the engine.
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
