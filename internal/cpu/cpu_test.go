package cpu

import (
	"testing"

	"nexsim/internal/isa"
	"nexsim/internal/vclock"
)

func work(n int64, mix isa.Mix, ws int64) isa.Work {
	return isa.Work{Instr: n, Mix: mix, WorkingSet: ws, IPCNative: 1.5, Seed: 12345}
}

func TestDurationScalesWithInstructions(t *testing.T) {
	m := New(Config{})
	d1 := m.Duration(work(100_000, isa.DefaultMix, 32<<10))
	m2 := New(Config{})
	d2 := m2.Duration(work(200_000, isa.DefaultMix, 32<<10))
	ratio := float64(d2) / float64(d1)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2x instructions -> %.2fx time, want ~2x", ratio)
	}
}

func TestLargerWorkingSetIsSlower(t *testing.T) {
	small := New(Config{}).Duration(work(200_000, isa.DefaultMix, 16<<10))
	large := New(Config{}).Duration(work(200_000, isa.DefaultMix, 64<<20))
	if large <= small {
		t.Fatalf("64MB working set (%v) not slower than 16KB (%v)", large, small)
	}
	if float64(large)/float64(small) < 1.3 {
		t.Fatalf("cache pressure too weak: %v vs %v", large, small)
	}
}

func TestMemHeavyMixIsSlower(t *testing.T) {
	compute := New(Config{}).Duration(work(200_000, isa.ComputeMix, 8<<20))
	memory := New(Config{}).Duration(work(200_000, isa.MemHeavyMix, 8<<20))
	if memory <= compute {
		t.Fatalf("memory-heavy mix (%v) not slower than compute mix (%v)", memory, compute)
	}
}

func TestDeterministic(t *testing.T) {
	a := New(Config{}).Duration(work(50_000, isa.DefaultMix, 1<<20))
	b := New(Config{}).Duration(work(50_000, isa.DefaultMix, 1<<20))
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestIPCInPlausibleRange(t *testing.T) {
	m := New(Config{})
	m.Duration(work(500_000, isa.DefaultMix, 256<<10))
	ipc := float64(m.Instructions) / float64(m.Cycles)
	if ipc < 0.4 || ipc > 4 {
		t.Fatalf("modeled IPC = %.2f implausible", ipc)
	}
}

func TestModeledTimeDiffersFromNative(t *testing.T) {
	// The whole point: the CPU model's timing is close to but not equal
	// to the declared native duration — gem5's systematic error (§6.5).
	w := work(1_000_000, isa.DefaultMix, 2<<20)
	native := w.NativeDuration(3 * vclock.GHz)
	modeled := New(Config{}).Duration(w)
	ratio := float64(modeled) / float64(native)
	if ratio == 1 {
		t.Fatal("model exactly matches native (suspicious)")
	}
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("model/native ratio %.2f outside plausible band", ratio)
	}
}

func TestZeroWork(t *testing.T) {
	if d := New(Config{}).Duration(isa.Work{}); d != 0 {
		t.Fatalf("zero work -> %v", d)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := New(Config{})
	m.Duration(work(100_000, isa.DefaultMix, 4<<20))
	if m.Instructions != 100_000 {
		t.Fatalf("Instructions = %d", m.Instructions)
	}
	if m.l1.Misses == 0 || m.Mispredicts == 0 {
		t.Fatalf("no misses/mispredicts recorded: %d/%d", m.l1.Misses, m.Mispredicts)
	}
}

// durationShapes mirror the probe shapes of simbench's
// cpu.ns_per_instr.{l1,l2,mem}: working sets that fit the modeled L1, fit
// the modeled L2, and fit neither.
var durationShapes = map[string]isa.Work{
	"L1":  {Instr: 200_000, Mix: isa.DefaultMix, WorkingSet: 16 << 10, IPCNative: 1.5, Seed: 7},
	"L2":  {Instr: 200_000, Mix: isa.MemHeavyMix, WorkingSet: 512 << 10, IPCNative: 1.5, Seed: 7},
	"Mem": {Instr: 200_000, Mix: isa.ComputeMix, WorkingSet: 8 << 20, IPCNative: 1.5, Seed: 7},
}

func benchDuration(b *testing.B, shape string, run func(*Model, isa.Work) vclock.Duration) {
	m, w := New(Config{}), durationShapes[shape]
	run(m, w) // warm the tag arrays
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(m, w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.Instr), "ns/instr")
}

func BenchmarkDurationL1(b *testing.B)  { benchDuration(b, "L1", (*Model).Duration) }
func BenchmarkDurationL2(b *testing.B)  { benchDuration(b, "L2", (*Model).Duration) }
func BenchmarkDurationMem(b *testing.B) { benchDuration(b, "Mem", (*Model).Duration) }

// The replaced per-instruction loop on the same shapes, for a same-process
// comparison.
func BenchmarkDurationRefL1(b *testing.B)  { benchDuration(b, "L1", refDuration) }
func BenchmarkDurationRefL2(b *testing.B)  { benchDuration(b, "L2", refDuration) }
func BenchmarkDurationRefMem(b *testing.B) { benchDuration(b, "Mem", refDuration) }
