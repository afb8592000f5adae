package nex

import (
	"slices"
	"testing"

	"nexsim/internal/coro"
	"nexsim/internal/vclock"
)

func mkThreads(n int) []*coro.Thread {
	out := make([]*coro.Thread, n)
	for i := range out {
		out[i] = coro.NewThread(i, "t", func() {})
		out[i].Data = &tstate{}
	}
	return out
}

// pick runs selectFair at one-microsecond epochs on a copy of runnable,
// which it reorders in place.
func pick(epoch int64, runnable []*coro.Thread, vcores int) []*coro.Thread {
	return selectFair(epoch, slices.Clone(runnable), vcores, vclock.Microsecond)
}

func TestFairPolicySelectsLowestVruntime(t *testing.T) {
	ths := mkThreads(4)

	// Epoch 0: everyone fresh; the first two (by id) run.
	sel := pick(0, ths, 2)
	if len(sel) != 2 || sel[0].ID != 0 || sel[1].ID != 1 {
		t.Fatalf("epoch 0 selection: %v,%v", sel[0].ID, sel[1].ID)
	}
	// Epoch 1: 0 and 1 have accumulated vruntime; 2 and 3 must run.
	sel = pick(1, ths, 2)
	if sel[0].ID != 2 || sel[1].ID != 3 {
		t.Fatalf("epoch 1 selection: %v,%v", sel[0].ID, sel[1].ID)
	}
	// Epoch 2: all equal again; back to 0 and 1.
	sel = pick(2, ths, 2)
	if sel[0].ID != 0 || sel[1].ID != 1 {
		t.Fatalf("epoch 2 selection: %v,%v", sel[0].ID, sel[1].ID)
	}
}

func TestFairPolicyWakeResetsToBaseline(t *testing.T) {
	// A thread absent for several epochs returns with vruntime reset to
	// the fixed baseline — the §A.1 simplification that diverges from
	// CFS (which aligns to the current minimum).
	ths := mkThreads(3)

	// Run threads 0 and 1 for many epochs while 2 is "asleep".
	for e := int64(0); e < 10; e++ {
		pick(e, ths[:2], 2)
	}
	// Thread 2 wakes: baseline reset means it monopolizes the core over
	// the long-running threads.
	sel := pick(10, ths, 1)
	if sel[0].ID != 2 {
		t.Fatalf("woken thread not prioritized: got %d", sel[0].ID)
	}
}

func TestFairPolicyAllFitNoTruncation(t *testing.T) {
	ths := mkThreads(3)
	if got := len(pick(0, ths, 8)); got != 3 {
		t.Fatalf("selected %d of 3", got)
	}
}
