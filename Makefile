# lint is the style/determinism gate: gofmt, go vet, and the simlint
# static-analysis suite (internal/analysis; see DESIGN.md §5: seven
# per-package checkers). simlint exits nonzero on any finding.
lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	go vet ./...
	go run ./cmd/simlint -json

# check is the full gate; check.sh starts with the same three lint steps.
check:
	sh check.sh
	$(MAKE) golden-386

# The table, spec-ID and device goldens on a 32-bit build: simulated
# results must not depend on the CPU (DESIGN.md §5). Not part of tier-1.
golden-386:
	GOARCH=386 go test -count=1 -run 'TestTablesGolden|TestIDsGolden|TestDevicesGolden' ./internal/experiments

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
# WAL recovery), all under the race detector.
chaos:
	go test -count=1 -race ./internal/faults/
	go test -count=1 -race -run 'TestFault|TestBudget' ./internal/experiments/
	go test -count=1 -race -run 'TestTransient|TestRetry|TestBudget|TestWAL' ./internal/simserve/

# Micro-benchmark suite (LPN engine scan-vs-reference, simbricks
# channel) at a stable sampling time, then a smoke pass over every other
# registered benchmark. End-to-end performance is `bash bench/run.sh`
# (BENCHMARK.json), the one baseline.
bench:
	go test -run xxx -bench . -benchtime 100ms ./internal/lpn/ ./internal/simbricks/
	go test -run xxx -bench . -benchtime 1x ./...

# CPU-model kernel micro-benchmarks: ns per simulated instruction on the
# three shapes of simbench's cpu.ns_per_instr probes (working set fits
# the modeled L1 / L2 / neither), block kernel next to the replaced
# per-instruction reference loop.
bench-cpu:
	go test -run '^$$' -bench 'Duration(Ref)?(L1|L2|Mem)$$' -benchtime 50x ./internal/cpu | grep -E 'ns/instr|^cpu:'

# DMA-path micro-benchmarks: ns per simulated line of 4 KB PCIe DMAs
# streaming into a cold and into a warm LLC, way-major cache next to the
# set-major reference it replaced, ns per page of the functional memory
# behind them, and what one build/run/release of the eight-device bench
# allocates (B/op) with the cache and page pools warm.
bench-dma:
	go test -run '^$$' -bench 'DMAStream|PageTouch|BuildRelease' -benchtime 20x -count 3 ./internal/cachesim ./internal/mem ./internal/core | grep -E 'Benchmark|^cpu:'

# Functional-track micro-benchmarks: ns per page of staging the
# resnet50-x2 operand set by mapping blobs next to the WriteAt staging it
# replaced, the cost of one plan key over mapped (page sums looked up)
# and over written (pages hashed in place) operands, ns per int8 MAC
# of vta.Core's GEMM kernel next to the loop it replaced on the five
# shapes a cold NEX+DSim pass spends the most GEMM time in, and ns per
# pixel of the JPEG corpus synthesizer, encoder and decoder next to the
# functions they replaced, on the catalog's corpora and on one Div2K-size
# (2040x1352) image.
bench-func:
	go test -run '^$$' -bench 'StageOperands|PlanKey|Gemm' -benchtime 200x -count 3 ./internal/workloads ./internal/accel/vta | grep -E 'Benchmark|^cpu:'
	go test -p 1 -run '^$$' -bench 'SynthImage|Encode|Decode' -benchtime 5x -count 3 ./internal/workloads ./internal/accel/jpeg | grep -E 'Benchmark|^cpu:'

# Simulated-thread switch cost: ns per engine → thread → engine round
# trip (one Resume and the Yield that answers it), 0 allocs/op.
bench-coro:
	go test -run '^$$' -bench Switch -benchtime 1000000x -count 3 ./internal/coro | grep -E 'Benchmark|^cpu:'

# Serving-path micro-benchmark: one wait=true submit of a hot spec at
# the router's handler over live loopback shards, answered from the edge
# cache next to forwarded to a shard-cache hit (ns/op, allocs/op).
bench-serve:
	go test -run '^$$' -bench RouterSubmit -benchtime 2000x -count 3 ./internal/cluster | grep -E 'Benchmark|^cpu:'

.PHONY: lint check golden-386 bench bench-cpu bench-dma bench-func bench-coro bench-serve serve-smoke crash-smoke cluster-smoke chaos
