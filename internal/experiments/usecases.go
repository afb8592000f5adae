package experiments

import (
	"fmt"
	"io"

	"nexsim/internal/core"
	"nexsim/internal/vclock"
)

// WhatIf reproduces §6.4's early-stage what-if analysis: a multithreaded
// JPEG application with 8 decoders whose matrix_filter_2d post-processing
// dominates. CompressT explores a hypothetical 10x offload; a
// JumpT-instrumented probe derives a tighter memory-bound factor.
var WhatIf = Experiment{
	ID: "whatif", Title: "§6.4: CompressT/JumpT what-if analysis (JPEG)",
	Specs: func() []Spec {
		return cross([]string{"jpeg-filter.8", "jpeg-filter.8-compress", "jpeg-filter.8-probe"}, nexDSim)
	},
	Render: func(w io.Writer, res []core.Result) error {
		baseline, compressed, probed := res[0], res[1], res[2]
		fmt.Fprintf(w, "baseline (8 JPEG decoders, heavy matrix_filter_2d): %s\n", fmtDur(baseline.SimTime))
		fmt.Fprintf(w, "CompressT 10x on matrix_filter_2d:                  %s (%.2fx overall)\n",
			fmtDur(compressed.SimTime),
			float64(baseline.SimTime)/float64(compressed.SimTime))
		fmt.Fprintf(w, "JumpT-probed realistic bound:                       %s (%.2fx overall)\n",
			fmtDur(probed.SimTime),
			float64(baseline.SimTime)/float64(probed.SimTime))
		return nil
	},
}

// vtaSweepBench is a less channel-scaled ResNet-50 (channels /2 instead
// of /4) so the compute:offload-overhead ratio resembles the real
// network's; see EXPERIMENTS.md.
const vtaSweepBench = "vta-resnet50-x2"

// vtaSweepPoints are VTASweep's design points.
var vtaSweepPoints = []struct {
	name string
	spec Spec
}{
	{"VTA @ PCIe 400ns, DMA from LLC", Spec{Bench: vtaSweepBench}},
	{"VTA @ PCIe 100ns, DMA from LLC", Spec{Bench: vtaSweepBench, LinkLatencyNS: 100}},
	{"VTA on-chip 4ns,  DMA from LLC", Spec{Bench: vtaSweepBench, Fabric: "onchip"}},
	{"VTA on-chip 4ns,  DMA from L2", Spec{Bench: vtaSweepBench, Fabric: "onchip", DMATarget: "l2"}},
}

// VTASweep reproduces §6.4's interactive design exploration on
// ResNet-50: CPU-only vs VTA at PCIe 400ns / 100ns / on-chip 4ns, and
// finally serving DMAs from an L2 instead of the LLC. The design points
// differ only in late-binding attachment parameters, so with
// checkpoints enabled the planner runs the shared host prefix once and
// forks the four points from its checkpoint.
var VTASweep = Experiment{
	ID: "vtasweep", Title: "§6.4: interactive VTA design exploration (ResNet-50)",
	// The CPU-only baseline plus one run per design point.
	Specs: func() []Spec {
		specs := []Spec{{Bench: "cpu-" + vtaSweepBench}}
		for _, p := range vtaSweepPoints {
			specs = append(specs, p.spec)
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		cpu := res[0]
		fmt.Fprintf(w, "%-34s %12s\n", "configuration", "inference")
		fmt.Fprintf(w, "%-34s %12s\n", "CPU only (no accelerator)", fmtDur(cpu.SimTime))
		for pi, p := range vtaSweepPoints {
			r := res[1+pi]
			verdict := "faster than CPU"
			if r.SimTime > cpu.SimTime {
				verdict = "SLOWER than CPU"
			}
			fmt.Fprintf(w, "%-34s %12s  (%s)\n", p.name, fmtDur(r.SimTime), verdict)
		}
		return nil
	},
}

// protoSweepLatsNS are the memory latencies ProtoSweep attaches at.
var protoSweepLatsNS = []int64{2, 4, 16, 64, 128, 256, 400}

// ProtoSweep reproduces §6.4's Protoacc observation: the accelerator
// only delivers speedups when its memory access latency is very low.
var ProtoSweep = Experiment{
	ID: "protosweep", Title: "§6.4: Protoacc memory-latency crossover",
	// The CPU-only serialization baseline plus one run per memory latency
	// (all sharing one prefix under the checkpoint planner — the latency
	// is a late-binding attachment parameter).
	Specs: func() []Spec {
		specs := []Spec{{Bench: "cpu-protoacc-bench0"}}
		for _, lat := range protoSweepLatsNS {
			specs = append(specs, Spec{Bench: "protoacc-bench0", LinkLatencyNS: lat})
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		cpu := res[0]
		fmt.Fprintf(w, "%-30s %12s\n", "configuration", "batch e2e")
		fmt.Fprintf(w, "%-30s %12s\n", "CPU only (Marshal on Xeon)", fmtDur(cpu.SimTime))
		for li, lat := range protoSweepLatsNS {
			r := res[1+li]
			verdict := "wins"
			if r.SimTime >= cpu.SimTime {
				verdict = "loses"
			}
			fmt.Fprintf(w, "Protoacc @ mem latency %-7s %12s  (%s vs CPU)\n",
				fmtDur(vclock.Duration(lat)*vclock.Nanosecond), fmtDur(r.SimTime), verdict)
		}
		return nil
	},
}
