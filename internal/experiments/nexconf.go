package experiments

import (
	"fmt"
	"io"

	"nexsim/internal/core"
	"nexsim/internal/nex"
	"nexsim/internal/stats"
	"nexsim/internal/vclock"
)

// npbSuite is the kernel set used for the NEX configuration studies.
var npbSuite = []string{"ep", "cg", "mg", "ft", "is", "bt", "sp", "lu"}

// npb names the catalog's NPB kernels at a thread count.
func npb(threads int) []string {
	names := make([]string, len(npbSuite))
	for i, k := range npbSuite {
		names[i] = fmt.Sprintf("npb-%s.%d", k, threads)
	}
	return names
}

var (
	table4EpochsNS = []int64{500, 1000, 2000, 4000}
	table4Threads  = []int{1, 8, 16}
)

// Table4 sweeps the epoch duration and thread count over the NPB suite:
// slowdown falls with larger epochs, accuracy is best near 1us and
// degrades both below (pipeline-refill loss) and above (cross-epoch
// synchronization skew).
var Table4 = Experiment{
	ID: "table4", Title: "Table 4: NEX error and slowdown vs epoch duration",
	// One native baseline per (thread count, kernel) — the bare-metal
	// ground truth, shared across the epoch sweep — then one NEX run per
	// (thread, epoch, kernel) cell.
	Specs: func() []Spec {
		var specs []Spec
		for _, t := range table4Threads {
			specs = append(specs, cross(npb(t), reference)...)
		}
		for _, t := range table4Threads {
			for _, e := range table4EpochsNS {
				specs = append(specs, cross(npb(t), Spec{EpochNS: e, VirtualCores: 16})...)
			}
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		epochs, threads, kernels := table4EpochsNS, table4Threads, len(npbSuite)
		nat, sims := res[:len(threads)*kernels], res[len(threads)*kernels:]

		fmt.Fprintf(w, "%-10s %-8s", "metric", "threads")
		for _, e := range epochs {
			fmt.Fprintf(w, " %10s", fmtDur(vclock.Duration(e)*vclock.Nanosecond))
		}
		fmt.Fprintln(w)

		// slow[ti][ei] / errs[ti][ei]: suite averages per cell.
		slow := make([][]float64, len(threads))
		errs := make([][]float64, len(threads))
		for ti := range threads {
			for ei, e := range epochs {
				var es, ss []float64
				for ki := 0; ki < kernels; ki++ {
					native := nat[ti*kernels+ki].SimTime
					r := sims[(ti*len(epochs)+ei)*kernels+ki]
					es = append(es, stats.RelErr(r.SimTime, native))
					ss = append(ss, modeledSlowdown(r.NEXStats, vclock.Duration(e)*vclock.Nanosecond, r.SimTime))
				}
				slow[ti] = append(slow[ti], stats.Summarize(ss).Avg)
				errs[ti] = append(errs[ti], stats.Summarize(es).Avg)
			}
		}
		for ti, t := range threads {
			fmt.Fprintf(w, "%-10s %-8d", "slowdown", t)
			for _, s := range slow[ti] {
				fmt.Fprintf(w, " %9.1fx", s)
			}
			fmt.Fprintln(w)
		}
		for ti, t := range threads {
			fmt.Fprintf(w, "%-10s %-8d", "avg error", t)
			for _, e := range errs[ti] {
				fmt.Fprintf(w, " %9.1f%%", e*100)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "(slowdown is modeled from epoch/round counts with the real"+
			" system's per-epoch costs — see EXPERIMENTS.md; error is measured)")
		return nil
	},
}

// modeledSlowdown converts the engine's measured event counters into
// the wall-clock slowdown NEX exhibits on real hardware (§7's 10-20x
// baseline overhead from per-epoch kernel crossings); see
// nex.Stats.ModeledWall.
func modeledSlowdown(st nex.Stats, epoch vclock.Duration, sim vclock.Duration) float64 {
	st.Syncs = 0 // syncs are reported separately (Hybrid experiment)
	return modeledSlowdownSync(st, epoch, sim)
}

// modeledSlowdownSync includes the periodic-sync cost.
func modeledSlowdownSync(st nex.Stats, epoch vclock.Duration, sim vclock.Duration) float64 {
	if sim <= 0 {
		return 0
	}
	return float64(st.ModeledWall(epoch)) / float64(sim)
}

var underprovPhys = []int{16, 4, 1}

// Underprovision evaluates 16 virtual cores on 1, 4 and 16 physical
// cores (§6.6): fewer physical cores degrade accuracy (and, on the real
// system, speed — we report the epoch-round count that drives it).
var Underprovision = Experiment{
	ID: "underprov", Title: "§6.6: underprovisioned physical cores",
	// One native baseline per kernel (independent of the physical-core
	// sweep), then one NEX run per (phys, kernel).
	Specs: func() []Spec {
		specs := cross(npb(16), reference)
		for _, phys := range underprovPhys {
			specs = append(specs, cross(npb(16),
				Spec{EpochNS: 1000, VirtualCores: 16, PhysicalCores: phys})...)
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		nat, sims := res[:len(npbSuite)], res[len(npbSuite):]
		fmt.Fprintf(w, "%-10s %10s %10s %14s\n", "physcores", "avg err", "max err", "rounds/epochs")
		for pi, phys := range underprovPhys {
			var errs []float64
			var rounds, epochs int64
			for ki := range npbSuite {
				r := sims[pi*len(npbSuite)+ki]
				errs = append(errs, stats.RelErr(r.SimTime, nat[ki].SimTime))
				rounds += r.NEXStats.Rounds
				epochs += r.NEXStats.Epochs
			}
			s := stats.Summarize(errs)
			fmt.Fprintf(w, "%-10d %9.1f%% %9.1f%% %13.1fx\n",
				phys, s.Avg*100, s.Max*100, float64(rounds)/float64(epochs))
		}
		return nil
	},
}

// compSchedConfigs are the oversubscribed (threads, cores) points.
var compSchedConfigs = []struct{ threads, cores int }{
	{2, 1}, {4, 2}, {8, 4}, {16, 4},
}

// CompSched evaluates the complementary scheduling policy in
// oversubscribed configurations against native Linux-like scheduling
// (the reference engine's CFS), highlighting the SP/LU divergence of
// §A.1.
var CompSched = Experiment{
	ID: "compsched", Title: "§6.6/§A.1: complementary scheduling accuracy",
	// Config-major: per (threads, cores) point, a (native, NEX) pair per
	// kernel.
	Specs: func() []Spec {
		var specs []Spec
		for _, c := range compSchedConfigs {
			specs = append(specs, cross(npb(c.threads),
				Spec{Host: "reference", Cores: c.cores},
				Spec{EpochNS: 1000, VirtualCores: c.cores})...)
		}
		return specs
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-8s", "kernel")
		for _, c := range compSchedConfigs {
			fmt.Fprintf(w, " %10s", fmt.Sprintf("%dT/%dC", c.threads, c.cores))
		}
		fmt.Fprintln(w)

		var others, spLu []float64
		for ki, k := range npbSuite {
			fmt.Fprintf(w, "%-8s", k)
			for ci := range compSchedConfigs {
				off := (ci*len(npbSuite) + ki) * 2
				e := stats.RelErr(res[off+1].SimTime, res[off].SimTime)
				if k == "sp" || k == "lu" {
					spLu = append(spLu, e)
				} else {
					others = append(others, e)
				}
				fmt.Fprintf(w, " %9.1f%%", e*100)
			}
			fmt.Fprintln(w)
		}
		so, sl := stats.Summarize(others), stats.Summarize(spLu)
		fmt.Fprintf(w, "all but SP/LU: avg %.1f%%, max %.1f%%\n", so.Avg*100, so.Max*100)
		fmt.Fprintf(w, "SP and LU:     avg %.1f%%, max %.1f%% (complementary policy diverges from CFS)\n",
			sl.Avg*100, sl.Max*100)
		return nil
	},
}

// Hybrid measures the cost of hybrid synchronization at 10us and 1us
// intervals relative to lazy synchronization (§6.7). The engine counts
// every periodic synchronization; the slowdown is modeled with the real
// system's cost structure (per-epoch scheduling plus a per-sync global
// pause + simulator message exchange), the same method as Table 4's
// slowdown column.
var Hybrid = Experiment{
	ID: "hybrid", Title: "§6.7: hybrid synchronization overhead",
	Specs: func() []Spec {
		return cross(familyBenches,
			Spec{SyncMode: "lazy"},
			Spec{SyncMode: "hybrid", SyncIntervalNS: 10_000},
			Spec{SyncMode: "hybrid", SyncIntervalNS: 1_000})
	},
	Render: func(w io.Writer, res []core.Result) error {
		fmt.Fprintf(w, "%-16s %12s %16s %16s\n",
			"benchmark", "lazy slowdown", "hybrid 10us", "hybrid 1us")
		var r10, r1 []float64
		for bi, name := range familyBenches {
			var slows [3]float64
			for vi := range slows {
				r := res[bi*len(slows)+vi]
				slows[vi] = modeledSlowdownSync(r.NEXStats, 1*vclock.Microsecond, r.SimTime)
			}
			f10 := slows[1] / slows[0]
			f1 := slows[2] / slows[0]
			r10 = append(r10, f10)
			r1 = append(r1, f1)
			fmt.Fprintf(w, "%-16s %12.1fx %10.1fx %.2fx %9.1fx %.2fx\n",
				name, slows[0], slows[1], f10, slows[2], f1)
		}
		s10, s1 := stats.Summarize(r10), stats.Summarize(r1)
		fmt.Fprintf(w, "hybrid@10us: avg %.2fx (max %.2fx); hybrid@1us: avg %.2fx (max %.2fx)\n",
			s10.Avg, s10.Max, s1.Avg, s1.Max)
		fmt.Fprintln(w, "(slowdowns modeled from measured epoch/sync counts; see EXPERIMENTS.md)")
		return nil
	},
}
