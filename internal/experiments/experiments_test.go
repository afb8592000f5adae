package experiments

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/nex"
	"nexsim/internal/vclock"
)

func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Specs == nil || e.Render == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Every table and figure of §6 must be present.
	for _, id := range []string{
		"table1", "table3", "table4", "fig3", "fig4", "fig5",
		"cpuonly", "underprov", "compsched", "hybrid", "tail",
		"whatif", "vtasweep", "protosweep", "tightvschan",
	} {
		if !seen[id] {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Smoke-run the cheap experiments so the harness itself stays covered by
// `go test ./...` (the full set runs via cmd/paperbench).
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"whatif", "protosweep", "ablation-tick", "ablation-iotlb"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if _, err := e.Run(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
		})
	}
}

// TestRunRejectsInvalidSpec: an experiment naming something the catalog
// or the spec limits do not allow fails with the normalization error
// before anything runs (the hand-built runs used to panic on the lookup).
func TestRunRejectsInvalidSpec(t *testing.T) {
	e := Experiment{ID: "bad", Title: "bad",
		Specs: func() []Spec { return []Spec{{Bench: "jpeg-decode"}, {Bench: "no-such-bench"}} },
		Render: func(io.Writer, []core.Result) error {
			t.Error("rendered an experiment whose specs do not validate")
			return nil
		}}
	_, err := e.Run(io.Discard)
	if err == nil || !strings.Contains(err.Error(), "spec 1") || !strings.Contains(err.Error(), "no-such-bench") {
		t.Fatalf("Run returned %v, want the normalization error of spec 1", err)
	}
}

// TestWallExecutorSplit: the wall time an experiment reports covers every
// execution — one for a plain experiment, the warm-up and both measured
// runs for a Wall one, whose rendered result is the faster measured run.
func TestWallExecutorSplit(t *testing.T) {
	var res []core.Result
	e := Experiment{ID: "probe", Title: "probe",
		Specs:  func() []Spec { return []Spec{{Bench: "npb-cg.8", EpochNS: 1000}} },
		Render: func(_ io.Writer, r []core.Result) error { res = r; return nil }}
	wall, err := e.Run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if wall != res[0].WallTime || wall <= 0 {
		t.Errorf("plain run: wall time %v, want the one run's wall time %v", wall, res[0].WallTime)
	}
	e.Wall = true
	plainSim := res[0].SimTime
	if wall, err = e.Run(io.Discard); err != nil {
		t.Fatal(err)
	}
	if wall <= 2*res[0].WallTime {
		t.Errorf("wall run: wall time %v does not cover three executions of which the fastest measured took %v",
			wall, res[0].WallTime)
	}
	if res[0].SimTime != plainSim {
		t.Errorf("wall run simulated %v, plain run %v", res[0].SimTime, plainSim)
	}
}

// TestExperimentRunsAreReleased: every run an experiment starts goes
// through executeRun, which hands the system's cache planes and memory
// pages back to their pools, so a repeat of whatif (three runs of eight
// devices each) allocates a fraction of what it did when the experiment
// built its systems itself and dropped them unreleased (20 MB; 3.5 MB
// released).
func TestExperimentRunsAreReleased(t *testing.T) {
	run := func() {
		if _, err := WhatIf.Run(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) >> 20; got > 10 {
		t.Errorf("a warm whatif allocated %d MB, want at most 10: its systems are not being released", got)
	}
}

func TestWhatIfOrdering(t *testing.T) {
	// The §6.4 invariant: hypothetical 10x >= realistic bound >= 1.
	var sb strings.Builder
	if _, err := WhatIf.Run(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "CompressT") || !strings.Contains(out, "JumpT") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestVTASweepMonotoneInLatency(t *testing.T) {
	var sb strings.Builder
	if _, err := VTASweep.Run(&sb); err != nil {
		t.Fatal(err)
	}
	// The naive 400ns attachment must be the slowest VTA configuration.
	out := sb.String()
	if !strings.Contains(out, "SLOWER than CPU") {
		t.Fatalf("expected the naive design to lose to the CPU:\n%s", out)
	}
}

func TestModeledSlowdownFormula(t *testing.T) {
	// 1000 epochs of 1us: wall = 1000*(13.6+0.45+1)us over 1ms sim = 15.05x.
	st := nex.Stats{Epochs: 1000, ThreadEpochs: 1000, Rounds: 1000}
	got := modeledSlowdown(st, vclock.Microsecond, vclock.Millisecond)
	if got < 14.5 || got > 15.5 {
		t.Fatalf("modeled slowdown = %.2f, want ~15", got)
	}
}
