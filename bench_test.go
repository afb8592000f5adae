// Package nexsim's root benchmarks expose one testing.B target per table
// and figure of the paper's evaluation (§6). Each benchmark iteration is
// one representative full-stack simulation run (the complete sweeps live
// in cmd/paperbench; these targets let `go test -bench` regenerate the
// headline row of each result quickly and track regressions).
package nexsim

import (
	"io"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/workloads"
)

// runOnce executes one spec and reports its simulated time.
func runOnce(b *testing.B, spec experiments.Spec) {
	b.Helper()
	res, err := experiments.RunSpecAttempt(spec, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if res.SimTime <= 0 {
		b.Fatalf("%+v produced no simulated time", spec)
	}
	b.ReportMetric(res.SimTime.Seconds()*1e3, "simulated-ms")
}

// on names a bench under one host/accelerator engine pair.
func on(bench, host, accel string) experiments.Spec {
	return experiments.Spec{Bench: bench, Host: host, Accel: accel}
}

// --- Table 1 / Figure 4: the four simulator combinations on a
// single-accelerator application. ---

func BenchmarkTable1_Gem5RTL_JPEG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-decode", "gem5", "rtl"))
	}
}

func BenchmarkTable1_Gem5DSim_JPEG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-decode", "gem5", "dsim"))
	}
}

func BenchmarkTable1_NEXRTL_JPEG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-decode", "nex", "rtl"))
	}
}

func BenchmarkTable1_NEXDSim_JPEG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-decode", "nex", "dsim"))
	}
}

// --- Figure 3: baseline vs NEX+DSim per workload family. ---

func BenchmarkFig3_VTAResnet18_Gem5RTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("vta-resnet18", "gem5", "rtl"))
	}
}

func BenchmarkFig3_VTAResnet18_NEXDSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("vta-resnet18", "nex", "dsim"))
	}
}

func BenchmarkFig3_Protoacc0_Gem5RTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("protoacc-bench0", "gem5", "rtl"))
	}
}

func BenchmarkFig3_Protoacc0_NEXDSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("protoacc-bench0", "nex", "dsim"))
	}
}

func BenchmarkFig3_JPEGmt8_Gem5RTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-mt.8", "gem5", "rtl"))
	}
}

func BenchmarkFig3_JPEGmt8_NEXDSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("jpeg-mt.8", "nex", "dsim"))
	}
}

// --- Table 3: accuracy reference runs (the error computation itself is
// in cmd/paperbench -exp table3; these track the two engines' cost). ---

func BenchmarkTable3_Reference_VTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, on("vta-resnet18", "reference", "rtl"))
	}
}

// --- Table 4: NEX on an NPB kernel per epoch-duration extreme. ---

func BenchmarkTable4_CG16_Epoch500ns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, experiments.Spec{Bench: "npb-cg.16", EpochNS: 500, VirtualCores: 16})
	}
}

func BenchmarkTable4_CG16_Epoch4us(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, experiments.Spec{Bench: "npb-cg.16", EpochNS: 4000, VirtualCores: 16})
	}
}

// --- §6.6: oversubscription / complementary scheduling. ---

func BenchmarkCompSched_LU16on4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, experiments.Spec{Bench: "npb-lu.16", EpochNS: 1000, VirtualCores: 4})
	}
}

// --- §6.7: hybrid synchronization. ---

func BenchmarkHybrid_JPEG_1us(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, experiments.Spec{Bench: "jpeg-decode", SyncMode: "hybrid", SyncIntervalNS: 1000})
	}
}

// --- §6.4 / §A.2 use-case sweeps (full experiment as one iteration). ---

// runExperiment renders one whole experiment per iteration.
func runExperiment(b *testing.B, e experiments.Experiment) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhatIf(b *testing.B)     { runExperiment(b, experiments.WhatIf) }
func BenchmarkVTASweep(b *testing.B)   { runExperiment(b, experiments.VTASweep) }
func BenchmarkProtoSweep(b *testing.B) { runExperiment(b, experiments.ProtoSweep) }

func BenchmarkTightVsChannel_VTAMatmul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, experiments.Spec{Bench: "vta-matmul", UseChannel: true})
	}
}

// --- Checkpoint/fork engine: fingerprint a halted prefix into a blob
// and fork fresh systems from it. Snapshot times the fingerprint of the
// halted engine; Restore re-runs the (short) staging prefix on a fresh
// system and checks it against the blob, so its cost is that prefix.
// Both report allocations and the blob size. ---

// checkpointPrefix builds a system and runs it up to its first device
// interaction, leaving it halted and checkpointable.
func checkpointPrefix(b *testing.B) (*core.System, core.Config, workloads.Bench) {
	b.Helper()
	bench, err := workloads.ByName("protoacc-bench0")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: bench.Model, Devices: bench.Devices, Cores: 16, Seed: 42}
	sys := core.Build(cfg)
	if _, completed := sys.RunPrefix(bench.Build(&sys.Ctx)); completed {
		b.Fatal("prefix ran to completion; nothing to snapshot")
	}
	return sys, cfg, bench
}

func BenchmarkCheckpointSnapshot(b *testing.B) {
	sys, _, _ := checkpointPrefix(b)
	var blob []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob, err = sys.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "blob-bytes")
}

func BenchmarkCheckpointRestore(b *testing.B) {
	psys, cfg, bench := checkpointPrefix(b)
	blob, err := psys.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.Build(cfg)
		if err := sys.RestoreCheckpoint(blob, bench.Build(&sys.Ctx)); err != nil {
			b.Fatal(err)
		}
		sys.Release()
	}
	b.ReportMetric(float64(len(blob)), "blob-bytes")
}

// --- Sweep executor: the same experiment serially and with 4 workers.
// On a multicore host the parallel target approaches a len(jobs)-bounded
// fraction of the serial wall time; on a single core it tracks the
// executor's overhead instead. ---

func BenchmarkVTASweep_Serial(b *testing.B) {
	experiments.SetParallelism(1)
	defer experiments.SetParallelism(1)
	runExperiment(b, experiments.VTASweep)
}

func BenchmarkVTASweep_Parallel4(b *testing.B) {
	experiments.SetParallelism(4)
	defer experiments.SetParallelism(1)
	runExperiment(b, experiments.VTASweep)
}
