package experiments

import (
	"fmt"
	"io"

	"nexsim/internal/core"
	"nexsim/internal/stats"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// table3Groups maps each accelerator family to its benchmarks (Table 3
// computes statistics "across all corresponding benchmarks").
var table3Groups = []struct {
	accel   string
	benches []string
}{
	{"VTA", []string{"vta-resnet18", "vta-resnet34", "vta-resnet50",
		"vta-yolov3-tiny", "vta-resnet18-mp4"}},
	{"Protoacc", protoBenches},
	{"JPEG", []string{"jpeg-decode", "jpeg-mt.2", "jpeg-mt.4", "jpeg-mt.8"}},
}

// protoBenches are the six serialization benchmarks.
var protoBenches = []string{"protoacc-bench0", "protoacc-bench1", "protoacc-bench2",
	"protoacc-bench3", "protoacc-bench4", "protoacc-bench5"}

// table3Boards are the FPGA stand-ins: the reference engine with the VTA
// clocked at the two board frequencies (the paper's 160MHz and 201MHz
// testbeds; the boards run the same RTL slower than the 2GHz ASIC
// target).
var table3Boards = []struct {
	name     string
	clockMHz int64
}{{"FPGA-1", 160}, {"FPGA-2", 201}}

// Table3 reports NEX+DSim's simulated-time error against (a) the
// exact-time reference engine (our stand-in for the FPGA testbeds, run
// at two "board" clock configurations for VTA) and (b) the gem5+RTL
// baseline, plus the range of simulated end-to-end latency.
var Table3 = Experiment{
	ID: "table3", Title: "Table 3: NEX+DSim simulated-time error vs baselines",
	// Per board, a (reference, NEX+DSim) pair per VTA benchmark; then per
	// group, a (gem5+RTL, NEX+DSim) pair per benchmark.
	Specs: func() []Spec {
		var specs []Spec
		for _, board := range table3Boards {
			specs = append(specs, cross(table3Groups[0].benches,
				Spec{Host: "reference", Accel: "rtl", AccelClockMHz: board.clockMHz},
				Spec{Host: "nex", Accel: "dsim", AccelClockMHz: board.clockMHz})...)
		}
		for _, g := range table3Groups {
			specs = append(specs, cross(g.benches, gem5RTL, nexDSim)...)
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-10s %-9s %7s %7s %7s   %s\n",
			"baseline", "accel", "avg", "max", "min", "E2E latency (NEX+DSim)")
		// row consumes the next n (baseline, got) pairs of res and prints
		// one summary row.
		row := func(label, accelName string, n int) {
			var errs []float64
			var lo, hi vclock.Duration
			for i := 0; i < n; i++ {
				base, got := res[2*i], res[2*i+1]
				errs = append(errs, stats.RelErr(got.SimTime, base.SimTime))
				if i == 0 || got.SimTime < lo {
					lo = got.SimTime
				}
				if got.SimTime > hi {
					hi = got.SimTime
				}
			}
			res = res[2*n:]
			s := stats.Summarize(errs)
			fmt.Fprintf(w, "%-10s %-9s %6.1f%% %6.1f%% %6.1f%%   %s - %s\n",
				label, accelName, s.Avg*100, s.Max*100, s.Min*100, fmtDur(lo), fmtDur(hi))
		}
		for _, board := range table3Boards {
			row(board.name, "VTA", len(table3Groups[0].benches))
		}
		for _, g := range table3Groups {
			row("gem5+RTL", g.accel, len(g.benches))
		}
		return nil
	},
}

// cpuOnlyBenches names the applications with accelerator calls removed.
func cpuOnlyBenches() []string {
	var names []string
	for _, b := range workloads.CPUOnlyBenches() {
		names = append(names, b.Name)
	}
	return names
}

// CPUOnly reruns the applications with accelerator calls removed and
// compares NEX's and gem5's simulated time against true native execution
// (the reference engine) — §6.5's error breakdown.
var CPUOnly = Experiment{
	ID: "cpuonly", Title: "§6.5: CPU-only error of NEX and gem5 vs native",
	Specs: func() []Spec {
		return cross(cpuOnlyBenches(), reference, Spec{Host: "nex"}, Spec{Host: "gem5"})
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-22s %12s %10s %10s\n", "benchmark", "native", "NEX err", "gem5 err")
		var nexErrs, gemErrs []float64
		for i, name := range cpuOnlyBenches() {
			native, nexR, gemR := res[3*i], res[3*i+1], res[3*i+2]
			ne := stats.RelErr(nexR.SimTime, native.SimTime)
			ge := stats.RelErr(gemR.SimTime, native.SimTime)
			nexErrs = append(nexErrs, ne)
			gemErrs = append(gemErrs, ge)
			fmt.Fprintf(w, "%-22s %12s %9.1f%% %9.1f%%\n",
				name, fmtDur(native.SimTime), ne*100, ge*100)
		}
		ns, gs := stats.Summarize(nexErrs), stats.Summarize(gemErrs)
		fmt.Fprintf(w, "NEX:  avg %.1f%%, max %.1f%%\n", ns.Avg*100, ns.Max*100)
		fmt.Fprintf(w, "gem5: avg %.1f%%, max %.1f%%\n", gs.Avg*100, gs.Max*100)
		return nil
	},
}

// Tail compares the 90th-percentile Protoacc task latency between
// NEX+DSim and gem5+RTL (§6.8). Task latencies come from the device's
// per-task log.
var Tail = Experiment{
	ID: "tail", Title: "§6.8: 90th-percentile task latency error (Protoacc)",
	Specs: func() []Spec { return cross(protoBenches, gem5RTL, nexDSim) },
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %12s %12s %9s\n", "benchmark", "gem5+RTL p90", "NEX+DSim p90", "rel err")
		var errs []float64
		for i, name := range protoBenches {
			base, got := p90Latency(res[2*i]), p90Latency(res[2*i+1])
			e := stats.RelErr(got, base)
			note := ""
			if base < vclock.Microsecond {
				// The paper excludes Protoacc-bench1 for the same reason: at
				// this scale CPU variance dominates relative error.
				note = "  (sub-1us: excluded from avg)"
			} else {
				errs = append(errs, e)
			}
			fmt.Fprintf(w, "%-18s %12s %12s %8.1f%%%s\n", name, fmtDur(base), fmtDur(got), e*100, note)
		}
		fmt.Fprintf(w, "avg p90 error: %.1f%%\n", stats.Summarize(errs).Avg*100)
		return nil
	},
}

// p90Latency is the p90 task latency of a run's device log.
func p90Latency(r core.Result) vclock.Duration {
	lat := make([]vclock.Duration, 0, len(r.TaskLatency))
	for _, s := range r.TaskLatency {
		lat = append(lat, s.Done.Sub(s.Submit))
	}
	return stats.Percentile(lat, 90)
}

// seedSweepBenches and seedSweepSeeds size SeedSweep.
var seedSweepBenches = []string{"vta-resnet18", "jpeg-decode", "protoacc-bench1"}

const seedSweepSeeds = 10

// SeedSweep characterizes the NEX error model's distribution: the same
// benchmark under ten calibration seeds, against the exact-time
// reference. The paper reports single numbers per benchmark; this sweep
// shows the spread a user should expect across hosts/calibrations.
var SeedSweep = Experiment{
	ID: "seedsweep", Title: "Extension: NEX error distribution across calibration seeds",
	// Per benchmark: the reference, then NEX under each seed.
	Specs: func() []Spec {
		variants := []Spec{reference}
		for seed := uint64(1); seed <= seedSweepSeeds; seed++ {
			variants = append(variants, Spec{Host: "nex", Seed: seed})
		}
		return cross(seedSweepBenches, variants...)
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-18s %8s %8s %8s   per-seed errors\n", "benchmark", "avg", "max", "min")
		for bi, name := range seedSweepBenches {
			off := bi * (seedSweepSeeds + 1)
			ref := res[off]
			var errs []float64
			line := ""
			for i := 1; i <= seedSweepSeeds; i++ {
				e := stats.RelErr(res[off+i].SimTime, ref.SimTime)
				errs = append(errs, e)
				line += fmt.Sprintf(" %.1f%%", e*100)
			}
			s := stats.Summarize(errs)
			fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %7.1f%%  %s\n",
				name, s.Avg*100, s.Max*100, s.Min*100, line)
		}
		return nil
	},
}
