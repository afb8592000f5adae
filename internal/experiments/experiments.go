// Package experiments regenerates every table and figure of the paper's
// evaluation (§6), mapping each to the modules that implement it (see
// DESIGN.md's per-experiment index). An Experiment is data: the list of
// Specs it runs and a renderer over their results. Run normalizes the
// specs, executes them through the one executor (serially by default;
// across workers after SetParallelism) and renders from the
// order-preserved results, so parallel runs produce byte-identical
// tables — and a renderer, which only ever sees results, cannot start a
// simulation of its own. cmd/paperbench drives the experiments and
// bench_test.go exposes one benchmark target per table/figure.
package experiments

import (
	"fmt"
	"io"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/sweep"
	"nexsim/internal/vclock"
)

// parallelism is the worker count used to execute each experiment's
// enumerated jobs. 1 (the default) reproduces the historical serial
// harness exactly; cmd/paperbench raises it via -parallel.
var parallelism = 1

// SetParallelism sets the number of workers experiments fan their
// simulation jobs across. n <= 1 selects serial execution. Not safe to
// call while an experiment is running.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}

// SetIntra does nothing: every simulation runs its host engine and its
// devices on one goroutine. It is kept only because the benchmark
// harness under bench/ compiles against it.
func SetIntra(int) {}

// Experiment is one regenerable table or figure: the runs it needs, as
// data, and the table over their results (in Specs order). Wall marks
// an experiment that prints measured wall times: each of its specs is
// run once to warm process-wide caches (memoized functional tracks,
// staged corpora) and then twice measured, keeping the run with the
// smaller wall time (the standard noise-resistant estimator; simulated
// time is identical across repetitions by determinism).
type Experiment struct {
	ID     string
	Title  string
	Wall   bool
	Specs  func() []Spec
	Render func(w io.Writer, res []core.Result) error
}

// Run executes the experiment's specs and renders its table to w. It
// returns the summed wall time of every simulation it executed
// (the warm-up and both measured runs of a Wall experiment included),
// and the first invalid spec as an error before anything runs.
func (e Experiment) Run(w io.Writer) (time.Duration, error) {
	norm, err := normalizeAll(e.Specs())
	if err != nil {
		return 0, fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	res, host := execute(norm, e.Wall)
	return host, e.Render(w, res)
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		Table1, Table3, Fig3, Fig4, Fig5, CPUOnly, Table4, Underprovision,
		CompSched, Hybrid, Tail, WhatIf, VTASweep, ProtoSweep, TightVsChan,
		AblationTick, AblationSync, AblationDSim, AblationIOTLB, SeedSweep,
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// execute runs every normalized spec through the sweep executor and
// returns the results in spec order, with the wall time summed over
// every execution. Each job builds its own System, so jobs share no
// mutable state and any subset may run concurrently. It panics on a run
// error (injected fault or budget abort): table and sweep specs carry
// fault-free plans, where executeRun cannot fail.
func execute(norm []Spec, wall bool) ([]core.Result, time.Duration) {
	pool := sweep.New(parallelism)
	if CheckpointsEnabled() {
		warmPrefixes(pool, norm)
	}
	res := make([]core.Result, len(norm))
	walls := make([]time.Duration, len(norm))
	sweep.Run(pool, len(norm), func(i int) {
		run := func() core.Result {
			r, err := runNormalized(norm[i], 0, 0)
			if err != nil {
				panic(err)
			}
			walls[i] += r.WallTime
			return r
		}
		if wall {
			run() // warm-up
		}
		res[i] = run()
		if wall {
			if r := run(); r.WallTime < res[i].WallTime {
				res[i] = r
			}
		}
	})
	var total time.Duration
	for _, w := range walls {
		total += w
	}
	return res, total
}

// cross enumerates benches × variants, bench-major: every variant (a
// partial Spec) applied to every named bench. Results of the cross are
// indexed res[bi*len(variants)+vi].
func cross(benches []string, variants ...Spec) []Spec {
	specs := make([]Spec, 0, len(benches)*len(variants))
	for _, name := range benches {
		for _, v := range variants {
			v.Bench = name
			specs = append(specs, v)
		}
	}
	return specs
}

// The four simulator combinations and the exact-time reference, as the
// partial Specs that select them.
var (
	gem5RTL   = Spec{Host: "gem5", Accel: "rtl"}
	gem5DSim  = Spec{Host: "gem5", Accel: "dsim"}
	nexRTL    = Spec{Host: "nex", Accel: "rtl"}
	nexDSim   = Spec{Host: "nex", Accel: "dsim"}
	reference = Spec{Host: "reference"}
)

// familyBenches is one application per accelerator family: the rows of
// the ablations and of Hybrid.
var familyBenches = []string{"jpeg-decode", "vta-resnet18", "protoacc-bench0"}

// fmtDur prints a virtual duration compactly.
func fmtDur(d vclock.Duration) string { return d.String() }

// fmtWall prints a wall duration compactly.
func fmtWall(d time.Duration) string { return d.Round(time.Microsecond).String() }
