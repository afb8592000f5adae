package isa

import (
	"testing"

	"nexsim/internal/vclock"
)

func TestNativeDurationFromInstr(t *testing.T) {
	w := Work{Instr: 3000, IPCNative: 1.5}
	// 2000 cycles at 1GHz = 2us.
	if got := w.NativeDuration(1 * vclock.GHz); got != 2*vclock.Microsecond {
		t.Fatalf("NativeDuration = %v", got)
	}
}

func TestNativeDurOverrides(t *testing.T) {
	w := Work{Instr: 1, IPCNative: 1, NativeDur: 7 * vclock.Microsecond}
	if got := w.NativeDuration(3 * vclock.GHz); got != 7*vclock.Microsecond {
		t.Fatalf("NativeDuration = %v", got)
	}
}

func TestZeroIPCDefaultsToOne(t *testing.T) {
	w := Work{Instr: 1000}
	if got := w.NativeDuration(1 * vclock.GHz); got != vclock.Microsecond {
		t.Fatalf("NativeDuration = %v", got)
	}
}

func TestSegmentRoundTrips(t *testing.T) {
	for _, d := range []vclock.Duration{vclock.Microsecond, 333 * vclock.Nanosecond, 5 * vclock.Millisecond} {
		w := Segment(d, 3*vclock.GHz, DefaultMix, 1024, 1.5, 7)
		if got := w.NativeDuration(3 * vclock.GHz); got != d {
			t.Fatalf("Segment(%v) round trip = %v", d, got)
		}
		if w.Instr <= 0 {
			t.Fatal("segment without instructions")
		}
	}
}

func TestMixesSumBelowOne(t *testing.T) {
	for _, m := range []Mix{DefaultMix, MemHeavyMix, ComputeMix} {
		if s := m.Load + m.Store + m.Branch + m.MulDiv; s >= 1 {
			t.Fatalf("mix %+v sums to %v", m, s)
		}
	}
}
