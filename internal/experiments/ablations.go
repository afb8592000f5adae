package experiments

import (
	"fmt"
	"io"

	"nexsim/internal/core"
	"nexsim/internal/stats"
)

// tickBenches are AblationTick's rows.
var tickBenches = []string{"protoacc-bench0", "jpeg-decode", "vta-resnet18"}

// AblationTick isolates NEX tick mode (§3.2): with tick-mode drivers,
// task-buffer writes are batched behind doorbells instead of each
// trapping; disabling it multiplies traps and the epoch-quantization
// error they carry.
var AblationTick = Experiment{
	ID: "ablation-tick", Title: "Ablation: NEX tick mode (trap batching, §3.2)",
	// A (reference, tick, no-tick) triple per benchmark.
	Specs: func() []Spec {
		return cross(tickBenches, reference, Spec{Host: "nex"}, Spec{Host: "nex", NoTick: true})
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %12s %12s %12s %12s\n",
			"benchmark", "traps(tick)", "traps(no)", "err(tick)", "err(no)")
		for i, name := range tickBenches {
			ref, withTick, noTick := res[3*i], res[3*i+1], res[3*i+2]
			fmt.Fprintf(w, "%-18s %12d %12d %11.1f%% %11.1f%%\n",
				name, withTick.NEXStats.Traps, noTick.NEXStats.Traps,
				100*stats.RelErr(withTick.SimTime, ref.SimTime),
				100*stats.RelErr(noTick.SimTime, ref.SimTime))
		}
		return nil
	},
}

// AblationSync contrasts lazy and eager synchronization (§3.1): eager
// advances the accelerator complex every epoch, multiplying
// synchronization events for no accuracy benefit on these workloads.
var AblationSync = Experiment{
	ID: "ablation-sync", Title: "Ablation: lazy vs eager synchronization (§3.1)",
	// A (reference, lazy, eager) triple per benchmark.
	Specs: func() []Spec {
		return cross(familyBenches, reference,
			Spec{Host: "nex", SyncMode: "lazy"}, Spec{Host: "nex", SyncMode: "eager"})
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %12s %12s %12s %12s\n",
			"benchmark", "syncs(lazy)", "syncs(eager)", "err(lazy)", "err(eager)")
		for i, name := range familyBenches {
			ref, lazy, eager := res[3*i], res[3*i+1], res[3*i+2]
			fmt.Fprintf(w, "%-18s %12d %12d %11.1f%% %11.1f%%\n",
				name, lazy.NEXStats.Syncs, eager.NEXStats.Syncs,
				100*stats.RelErr(lazy.SimTime, ref.SimTime),
				100*stats.RelErr(eager.SimTime, ref.SimTime))
		}
		fmt.Fprintln(w, "(each eager sync is a lock-step accelerator advance; on the real")
		fmt.Fprintln(w, " system every one is a cross-simulator message exchange — the cost")
		fmt.Fprintln(w, " lazy synchronization eliminates)")
		return nil
	},
}

// AblationDSim isolates the di-simulation split: DSim (LPN performance
// track) vs the cycle-stepped RTL-style models, same host engine. The
// accelerator simulators are indistinguishable in results but orders of
// magnitude apart in internal steps.
var AblationDSim = Experiment{
	ID: "ablation-dsim", Title: "Ablation: DSim LPN vs RTL-style accelerator simulation", Wall: true,
	Specs: func() []Spec { return cross(familyBenches, nexDSim, nexRTL) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %14s %14s %12s\n",
			"benchmark", "DSim wall", "RTL wall", "sim-time err")
		for i, name := range familyBenches {
			dsim, rtl := res[2*i], res[2*i+1]
			fmt.Fprintf(w, "%-18s %14s %14s %11.1f%%\n",
				name, fmtWall(dsim.WallTime), fmtWall(rtl.WallTime),
				100*stats.RelErr(dsim.SimTime, rtl.SimTime))
		}
		return nil
	},
}

// AblationIOTLB exercises the §7 future-work extension: translating
// accelerator DMAs through a per-device I/O TLB. Small TLBs with
// page-table walks lengthen DMA-bound benchmarks; generous TLBs cost
// almost nothing.
var AblationIOTLB = Experiment{
	ID: "ablation-iotlb", Title: "Extension (§7 future work): I/O TLB translation cost",
	Specs: func() []Spec {
		return cross(familyBenches, Spec{}, Spec{IOTLBEntries: 64}, Spec{IOTLBEntries: 8})
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %12s %14s %14s\n",
			"benchmark", "no IOTLB", "64-entry", "8-entry")
		for i, name := range familyBenches {
			off, big, small := res[3*i], res[3*i+1], res[3*i+2]
			fmt.Fprintf(w, "%-18s %12s %11s %.2fx %11s %.2fx\n",
				name, fmtDur(off.SimTime),
				fmtDur(big.SimTime), float64(big.SimTime)/float64(off.SimTime),
				fmtDur(small.SimTime), float64(small.SimTime)/float64(off.SimTime))
		}
		return nil
	},
}
