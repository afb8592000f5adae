package cpu

import (
	"fmt"
	"math"
	"testing"

	"nexsim/internal/cachesim"
	"nexsim/internal/isa"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// modelState is everything a Duration call can change that a caller or a
// later call can observe.
type modelState struct {
	Instructions, Cycles, Mispredicts int64
	L1, L2                            cacheStats
	Dice                              uint64
}

type cacheStats struct{ Hits, Misses, Evictions, Writebacks int64 }

func statsOf(c *cachesim.Cache) cacheStats {
	return cacheStats{c.Hits, c.Misses, c.Evictions, c.Writebacks}
}

func stateOf(m *Model) modelState {
	return modelState{m.Instructions, m.Cycles, m.Mispredicts, statsOf(m.l1), statsOf(m.l2), m.back.x}
}

// checkAgainstReference runs w on the kernel model and on the reference
// model and fails on any difference in the returned duration or in the
// observable state afterwards.
func checkAgainstReference(t testing.TB, kern, ref *Model, step string, w isa.Work) {
	t.Helper()
	got, want := kern.Duration(w), refDuration(ref, w)
	if got != want {
		t.Fatalf("%s: %+v: kernel duration %v, reference %v", step, w, got, want)
	}
	if g, r := stateOf(kern), stateOf(ref); g != r {
		t.Fatalf("%s: %+v: state diverged\nkernel    %+v\nreference %+v", step, w, g, r)
	}
}

// randomWork draws a segment from the whole input space the workloads
// use and a margin around it: working sets from one line to 64 MB on a
// log scale, 1 to 300k instructions (short segments far more often than
// long ones, so block-boundary lengths are dense), arbitrary seeds, and
// mixes that sometimes leave the [0,1] simplex.
func randomWork(r *xrand.Stream) isa.Work {
	frac := func(scale float64) float64 {
		switch r.Intn(12) {
		case 0:
			return 0
		case 1:
			return -r.Float64()
		case 2:
			return 1 + r.Float64()
		}
		return r.Float64() * scale
	}
	instr := int64(1) << r.Intn(19)
	instr += r.Int63n(instr)
	if instr > 300_000 {
		instr = 300_000
	}
	if r.Intn(4) == 0 { // around a block boundary
		instr = int64(blockLen*(1+r.Intn(4)) + r.Intn(3) - 1)
	}
	ws := int64(64) << r.Intn(21)
	ws += r.Int63n(ws)
	return isa.Work{
		Instr:      instr,
		Mix:        isa.Mix{Load: frac(0.5), Store: frac(0.3), Branch: frac(0.3), MulDiv: frac(0.2)},
		WorkingSet: min(ws, 64<<20),
		Seed:       r.Uint64() >> r.Intn(64),
	}
}

// TestKernelMatchesReferenceSequences is the differential test of the
// block kernel: a long random Work sequence on one long-lived Model (so
// cache contents, the backing dice and the latency memo carry over from
// call to call) must match the per-instruction reference loop after every
// call — 1000 calls on the default core, 150 on each unusual one.
func TestKernelMatchesReferenceSequences(t *testing.T) {
	for i, c := range []struct {
		cfg   Config
		calls int
	}{
		{Config{}, 1000},
		{Config{IssueWidth: 1, MispredictPenalty: 1}, 150},
		{Config{IssueWidth: 16, MLP: 1, L1Lat: 1, ALULat: 2}, 150},
		{Config{Clock: 1700 * vclock.MHz, PredictAccuracy: 0.5, LLCBytes: 1 << 20}, 150},
	} {
		if testing.Short() {
			c.calls /= 10
		}
		r := xrand.New(0x5eed + uint64(i))
		kern, ref := New(c.cfg), New(c.cfg)
		for n := 0; n < c.calls; n++ {
			checkAgainstReference(t, kern, ref, fmt.Sprintf("config %d call %d", i, n), randomWork(r))
		}
	}
}

// FuzzDurationMatchesReference lets the fuzzer pick the segment: two
// calls on one Model pair, so the second runs against warm caches. The
// seed corpus is testdata/fuzz/FuzzDurationMatchesReference.
func FuzzDurationMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, instr, ws int64, seed uint64, load, store, branch, muldiv float64) {
		w := isa.Work{
			Instr:      instr % 20_000, // keeps one exec in the tens of microseconds
			Mix:        isa.Mix{Load: load, Store: store, Branch: branch, MulDiv: muldiv},
			WorkingSet: ws,
			Seed:       seed,
		}
		kern, ref := New(Config{}), New(Config{})
		checkAgainstReference(t, kern, ref, "cold", w)
		checkAgainstReference(t, kern, ref, "warm", w)
	})
}

// TestDiceThresholds pins the saturating mix → threshold conversion: the
// in-range mixes every workload uses convert exactly as the plain
// float→uint conversion did, and out-of-range fractions clamp instead of
// hitting the conversion's implementation-defined cases.
func TestDiceThresholds(t *testing.T) {
	for _, mix := range []isa.Mix{isa.DefaultMix, isa.MemHeavyMix, isa.ComputeMix} {
		for _, f := range []float64{mix.Load, mix.Store, mix.Branch, mix.MulDiv} {
			if got, want := diceThreshold(f), uint64(f*diceMax); got != want {
				t.Errorf("diceThreshold(%v) = %d, want %d", f, got, want)
			}
		}
	}
	for _, c := range []struct {
		frac float64
		want uint64
	}{
		{0, 0}, {-0.25, 0}, {math.Inf(-1), 0}, {math.NaN(), 0}, {1e-9, 0},
		{0.5, 1 << 15}, {1, diceMax}, {1.5, diceMax}, {1e300, diceMax}, {math.Inf(1), diceMax},
	} {
		if got := diceThreshold(c.frac); got != c.want {
			t.Errorf("diceThreshold(%v) = %d, want %d", c.frac, got, c.want)
		}
	}
}

// TestEdgeSegments runs the degenerate mixes and lengths against the
// reference and checks what each must mean: no class at all, classes
// whose fractions overflow the dice, negative fractions, single
// instructions, lengths off the block grid, sub-line working sets.
func TestEdgeSegments(t *testing.T) {
	lengths := []int64{1, 2, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 7, 1000}
	for _, c := range []struct {
		name string
		mix  isa.Mix
		ws   int64
		// Whether loads/stores and mispredicts must occur, must not, or may.
		mem, mispredicts expectation
	}{
		{"all-zero mix", isa.Mix{}, 4 << 10, never, never},
		{"negative fractions", isa.Mix{Load: -1, Store: -0.5, Branch: -3, MulDiv: -0.1}, 4 << 10, never, never},
		{"loads alone exceed 1", isa.Mix{Load: 1.7, Branch: 0.5}, 4 << 10, some, never},
		{"sum exceeds 1", isa.Mix{Load: 0.5, Store: 0.4, Branch: 0.4, MulDiv: 0.4}, 1 << 20, some, either},
		{"negative load, branches only", isa.Mix{Load: -1, Branch: 1}, 4 << 10, never, some},
		{"working set below a line", isa.DefaultMix, 1, some, either},
		{"working set zero", isa.MemHeavyMix, 0, some, either},
		{"working set negative", isa.MemHeavyMix, -4096, some, either},
	} {
		kern, ref := New(Config{}), New(Config{})
		for _, n := range lengths {
			w := isa.Work{Instr: n, Mix: c.mix, WorkingSet: c.ws, Seed: uint64(n)}
			checkAgainstReference(t, kern, ref, c.name, w)
		}
		if accesses := kern.l1.Hits + kern.l1.Misses; !c.mem.allows(accesses) {
			t.Errorf("%s: %d L1 accesses", c.name, accesses)
		}
		if !c.mispredicts.allows(kern.Mispredicts) {
			t.Errorf("%s: %d mispredicts", c.name, kern.Mispredicts)
		}
		if c.ws < 64 && kern.l1.Misses != 1 {
			t.Errorf("%s: %d L1 misses, want the one cold miss of a single line", c.name, kern.l1.Misses)
		}
	}
}

// expectation says whether a counter must stay zero, must move, or may
// do either.
type expectation int

const (
	either expectation = iota
	never
	some
)

func (e expectation) allows(count int64) bool {
	return e == either || (e == some) == (count > 0)
}

// TestRecipMatchesModulo checks the multiply-high reciprocal against %
// at the edges of its domain: divisors 1, 2^k and 2^k±1 up to the line
// count of the largest int64 working set, numerators around every power
// of two and every multiple of the divisor's neighbours up to 2^47−1 (the
// kernel's numerators are x>>17).
func TestRecipMatchesModulo(t *testing.T) {
	const maxN = 1<<47 - 1
	var divisors []uint64
	for k := uint(0); k <= 57; k++ {
		for _, d := range []uint64{1<<k - 1, 1 << k, 1<<k + 1} {
			if d >= 1 {
				divisors = append(divisors, d)
			}
		}
	}
	divisors = append(divisors, 3, 5, 7, 10, 100, 255, 1000, 4095, 1_000_003, 1<<20-3)
	r := xrand.New(47)
	for _, d := range divisors {
		rc := newRecip(d)
		numerators := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, maxN - 1, maxN, maxN / d * d, maxN/d*d - 1}
		for k := uint(0); k <= 47; k++ {
			numerators = append(numerators, 1<<k-1, 1<<k, 1<<k+1)
		}
		for i := 0; i < 200; i++ {
			q := r.Uint64() % (maxN/d + 1)
			numerators = append(numerators, q*d, q*d+d-1, q*d-1, r.Uint64()&maxN)
		}
		for _, n := range numerators {
			if n &= maxN; rc.mod(n) != n%d {
				t.Fatalf("recip(%d).mod(%d) = %d, want %d", d, n, rc.mod(n), n%d)
			}
		}
	}
}

// TestDurationDoesNotAllocate: the block buffers live in the Model, so a
// call allocates nothing, whether it hits or misses.
func TestDurationDoesNotAllocate(t *testing.T) {
	for name, w := range durationShapes {
		m := New(Config{})
		m.Duration(w) // carve the cache sets this shape touches
		if allocs := testing.AllocsPerRun(5, func() { m.Duration(w) }); allocs != 0 {
			t.Errorf("%s: %v allocs per Duration call, want 0", name, allocs)
		}
	}
}
