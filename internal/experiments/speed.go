package experiments

import (
	"fmt"
	"io"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/stats"
)

// speedBenches are the benchmarks measured for Fig. 3 (one per workload
// family plus the multi-accelerator configurations).
var speedBenches = []string{
	"vta-resnet18", "vta-resnet34", "vta-resnet50", "vta-yolov3-tiny",
	"vta-matmul", "vta-resnet18-mp4",
	"protoacc-bench0", "protoacc-bench1", "protoacc-bench2",
	"protoacc-bench3", "protoacc-bench4", "protoacc-bench5",
	"jpeg-decode", "jpeg-mt.2", "jpeg-mt.4", "jpeg-mt.8",
}

// combos of Table 1 / Fig. 4 in paper order (slow to fast).
var (
	combos     = []Spec{gem5RTL, gem5DSim, nexRTL, nexDSim}
	comboNames = []string{"gem5+RTL", "gem5+DSim", "NEX+RTL", "NEX+DSim"}
)

// Fig3 measures total simulation time per benchmark for the baseline and
// NEX+DSim, reporting the speedup (the paper's headline 6x-879x result;
// our substrate compresses the range — see EXPERIMENTS.md — but the
// ordering and compute-vs-DMA shape hold).
var Fig3 = Experiment{
	ID: "fig3", Title: "Figure 3: simulation time and NEX+DSim speedup over gem5+RTL", Wall: true,
	Specs: func() []Spec { return cross(speedBenches, gem5RTL, nexDSim) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-20s %12s %14s %14s %9s\n",
			"benchmark", "simulated", "gem5+RTL wall", "NEX+DSim wall", "speedup")
		var speedups []float64
		for i, name := range speedBenches {
			slow, fast := res[2*i], res[2*i+1]
			sp := float64(slow.WallTime) / float64(fast.WallTime)
			speedups = append(speedups, sp)
			fmt.Fprintf(w, "%-20s %12s %14s %14s %8.1fx\n",
				name, fmtDur(fast.SimTime), fmtWall(slow.WallTime), fmtWall(fast.WallTime), sp)
		}
		s := stats.Summarize(speedups)
		fmt.Fprintf(w, "speedup range: %.1fx - %.1fx (geo mean %.1fx)\n",
			s.Min, s.Max, stats.GeoMean(speedups))
		return nil
	},
}

// fig4Benches is the Fig. 4/5 subset (one per family + the
// accelerator-bound matmul).
var fig4Benches = []string{
	"vta-resnet18", "vta-matmul", "vta-yolov3-tiny",
	"protoacc-bench0", "protoacc-bench5", "jpeg-decode", "jpeg-mt.4",
}

// Fig4 breaks the speedup down across the four simulator combinations.
var Fig4 = Experiment{
	ID: "fig4", Title: "Figure 4: speedup breakdown across simulator combinations", Wall: true,
	Specs: func() []Spec { return cross(fig4Benches, combos...) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s", "benchmark")
		for _, name := range comboNames {
			fmt.Fprintf(w, " %14s", name)
		}
		fmt.Fprintf(w, " | speedups vs gem5+RTL\n")
		for bi, name := range fig4Benches {
			runs := res[bi*len(combos):][:len(combos)]
			fmt.Fprintf(w, "%-18s", name)
			for _, r := range runs {
				fmt.Fprintf(w, " %14s", fmtWall(r.WallTime))
			}
			fmt.Fprintf(w, " |")
			for i, r := range runs[1:] {
				fmt.Fprintf(w, " %s=%.1fx", comboNames[i+1], float64(runs[0].WallTime)/float64(r.WallTime))
			}
			fmt.Fprintln(w)
		}
		return nil
	},
}

// Fig5 reports each combination's simulated-time error relative to the
// gem5+RTL baseline.
var Fig5 = Experiment{
	ID: "fig5", Title: "Figure 5: simulated-time error relative to gem5+RTL",
	Specs: func() []Spec { return cross(fig4Benches, combos...) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s", "benchmark")
		for _, name := range comboNames[1:] {
			fmt.Fprintf(w, " %12s", name)
		}
		fmt.Fprintln(w)
		for bi, name := range fig4Benches {
			runs := res[bi*len(combos):][:len(combos)] // runs[0] is the gem5+RTL baseline
			fmt.Fprintf(w, "%-18s", name)
			for _, r := range runs[1:] {
				fmt.Fprintf(w, " %11.1f%%", 100*stats.RelErr(r.SimTime, runs[0].SimTime))
			}
			fmt.Fprintln(w)
		}
		return nil
	},
}

// table1Benches: the single-accelerator JPEG and VTA applications the
// paper computes Table 1's slowdown ranges from.
var table1Benches = []string{"jpeg-decode", "vta-resnet18", "vta-matmul"}

// Table1 reports each combination's slowdown (wall time / simulated
// time) range across the single-accelerator applications. Absolute
// slowdowns differ from the paper's (its baseline is real silicon; ours
// is a discrete-event substrate), but the column ordering — each mode
// strictly faster than the one to its left — is the claim.
var Table1 = Experiment{
	ID: "table1", Title: "Table 1: simulation-mode comparison (slowdown ranges)", Wall: true,
	Specs: func() []Spec { return cross(table1Benches, combos...) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-12s", "combo")
		fmt.Fprintf(w, " %22s %22s\n", "slowdown range", "wall-time range")
		for ci, name := range comboNames {
			minS, maxS := 1e18, 0.0
			var minW, maxW time.Duration
			for bi := range table1Benches {
				r := res[bi*len(combos)+ci]
				s := r.Slowdown()
				if s < minS {
					minS = s
				}
				if s > maxS {
					maxS = s
				}
				if bi == 0 || r.WallTime < minW {
					minW = r.WallTime
				}
				if r.WallTime > maxW {
					maxW = r.WallTime
				}
			}
			fmt.Fprintf(w, "%-12s %9.0fx - %9.0fx %10s - %9s\n",
				name, minS, maxS, fmtWall(minW), fmtWall(maxW))
		}
		return nil
	},
}

// tightBenches are TightVsChan's rows.
var tightBenches = []string{"vta-resnet18", "vta-matmul", "vta-yolov3-tiny", "jpeg-decode"}

// TightVsChan compares the tight in-process NEX+DSim integration with
// the SimBricks-channel composition (§A.2: tight is 1.6x faster on
// average, up to 1.9x on matmul). Our in-process ring's per-message cost
// is far below a real cross-process shared-memory channel's
// (poll + cacheline ping-pong, ~600ns), so the ratio is modeled from the
// measured message count with that per-message cost; the raw measured
// walls are shown for transparency.
var TightVsChan = Experiment{
	ID: "tightvschan", Title: "§A.2: tight integration vs SimBricks channel", Wall: true,
	Specs: func() []Spec { return cross(tightBenches, nexDSim, Spec{UseChannel: true}) },
	Render: func(w io.Writer, res []core.Result) error {
		const perMsg = 600 * time.Nanosecond
		fmt.Fprintf(w, "%-18s %12s %12s %10s %8s\n",
			"benchmark", "tight wall", "chan wall", "messages", "modeled")
		var ratios []float64
		for i, name := range tightBenches {
			tight, ch := res[2*i], res[2*i+1]
			ratio := float64(tight.WallTime+time.Duration(ch.ChannelMsgs)*perMsg) / float64(tight.WallTime)
			ratios = append(ratios, ratio)
			fmt.Fprintf(w, "%-18s %12s %12s %10d %7.2fx\n",
				name, fmtWall(tight.WallTime), fmtWall(ch.WallTime), ch.ChannelMsgs, ratio)
		}
		fmt.Fprintf(w, "channel overhead (modeled from message counts): avg %.2fx, max %.2fx\n",
			stats.Summarize(ratios).Avg, stats.Summarize(ratios).Max)
		return nil
	},
}
