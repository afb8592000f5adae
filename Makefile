# lint is the style/determinism gate: gofmt, go vet, and the simlint
# static-analysis suite (internal/analysis; see DESIGN.md §5). simlint
# exits nonzero on any finding, so `make check` cannot pass with one.
# The findings cache in .lintcache makes reruns on an unchanged tree
# near-instant; lint-cold bypasses it (authoritative full analysis).
lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	go vet ./...
	go run ./cmd/simlint -json -cache-dir .lintcache

lint-cold:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	go vet ./...
	go run ./cmd/simlint -json

check: lint
	sh check.sh

# End-to-end smoke test of the simd daemon: ephemeral port, cheap job
# submitted twice, 200 + byte-identical cache hit on the resubmit,
# graceful SIGTERM drain. check.sh runs this too.
serve-smoke:
	sh scripts/serve_smoke.sh

# Crash-safety smoke test: simd with -state-dir answers a job, is
# killed with SIGKILL, and the restarted daemon serves the same spec
# byte-identically from its recovered journal. check.sh runs this too.
crash-smoke:
	sh scripts/crash_smoke.sh

# Cluster smoke test: three simd shards behind simrouter on real
# sockets. A routed sweep must be byte-identical to single-node simd,
# a second pass must be all cache hits, a shard killed with SIGKILL
# mid-batch must not lose the batch (hedged failover, zero determinism
# probe mismatches), and the restarted shard must be re-admitted.
# check.sh runs this too.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Chaos gate: the deterministic fault matrix (every injection site ×
# {fail, delay} under fixed seeds), the budget watchdog tests (abort
# without goroutine leaks), and the simserve self-healing tests (retry,
# hedge, WAL recovery), all under the race detector.
chaos:
	go test -count=1 -race ./internal/faults/
	go test -count=1 -race -run 'TestFault|TestBudget' ./internal/experiments/
	go test -count=1 -race -run 'TestTransient|TestRetry|TestBudget|TestHedge|TestWAL' ./internal/simserve/

# Micro-benchmark suite (LPN engine incremental-vs-reference, simbricks
# channel) at a stable sampling time, a smoke pass over every other
# registered benchmark, then the full paper experiment run with a JSON
# report. BENCH_pr3.json is committed as the perf baseline for the
# incremental enabled-set engine; BENCH_pr10.json is the current
# wall-time baseline, recorded at -intra 4 (GOMAXPROCS pinned so the
# stepper lanes are real on single-core CI) and consumed by bench-gate.
bench:
	go test -run xxx -bench . -benchtime 100ms ./internal/lpn/ ./internal/simbricks/
	go test -run xxx -bench . -benchtime 1x ./...
	GOMAXPROCS=4 go run ./cmd/paperbench -exp all -parallel 1 -intra 4 -checkpoints -json BENCH_pr10.json

# Wall-time regression gate against the committed benchmark baseline:
# re-runs every table in BENCH_pr10.json and fails on any >1.5x slowdown
# (knobs: BASELINE/TOL/PARALLEL/INTRA). Opt-in — wall times are too
# machine-dependent for `make check`.
bench-gate:
	sh scripts/bench_gate.sh

# CPU-model kernel micro-benchmarks: ns per simulated instruction on the
# three shapes of simbench's cpu.ns_per_instr probes (working set fits
# the modeled L1 / L2 / neither), block kernel next to the replaced
# per-instruction reference loop.
bench-cpu:
	go test -run '^$$' -bench 'Duration(Ref)?(L1|L2|Mem)$$' -benchtime 50x ./internal/cpu | grep -E 'ns/instr|^cpu:'

# Conservative-parallel determinism smoke: -intra 1 vs -intra 4 tables
# and chrome traces byte-identical. check.sh runs this too.
intra-smoke:
	sh scripts/intra_smoke.sh

.PHONY: lint check bench bench-gate bench-cpu intra-smoke serve-smoke crash-smoke cluster-smoke chaos
