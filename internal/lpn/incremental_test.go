package lpn

import (
	"strings"
	"testing"

	"nexsim/internal/vclock"
)

// TestBackpressureReleaseReenables: a producer blocked on a full
// downstream place must fire again the moment a consumer frees capacity,
// within the same Advance call.
func TestBackpressureReleaseReenables(t *testing.T) {
	n := New("bp")
	in := n.AddPlace("in", 0)
	q := n.AddPlace("q", 1) // capacity 1: one token blocks the producer
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{
		Name: "produce", In: []Arc{{Place: in}}, Out: []OutArc{{Place: q}},
	})
	gate := n.AddPlace("gate", 0)
	n.AddTransition(&Transition{
		Name: "consume",
		In:   []Arc{{Place: q}, {Place: gate}},
		Out:  []OutArc{{Place: out}},
	})
	n.Inject(in, Tok(0))
	n.Inject(in, Tok(0))
	n.Advance(100)
	if q.Len() != 1 || in.Len() != 1 {
		t.Fatalf("q=%d in=%d, want producer blocked with 1 queued + 1 waiting", q.Len(), in.Len())
	}
	// Open the gate: consume drains q, freeing capacity, which must
	// re-enable the blocked producer within the same Advance.
	n.Inject(gate, Tok(150))
	n.Inject(gate, Tok(150))
	n.Advance(200)
	if out.Len() != 2 || in.Len() != 0 {
		t.Fatalf("out=%d in=%d, want both tokens through after release", out.Len(), in.Len())
	}
}

// TestWeightedArcIncrementalRefill: a weight-3 join receiving its tokens
// one Advance call at a time must stay disabled until the third arrives,
// then fire at the max timestamp of the group.
func TestWeightedArcIncrementalRefill(t *testing.T) {
	n := New("w")
	parts := n.AddPlace("parts", 0)
	whole := n.AddPlace("whole", 0)
	n.AddTransition(&Transition{
		Name: "join", In: []Arc{{Place: parts, Weight: 3}}, Out: []OutArc{{Place: whole}},
	})
	for i, ts := range []vclock.Time{5, 9, 7} {
		n.Inject(parts, Tok(ts))
		n.Advance(vclock.Time(20 + 10*i))
		if want := 0; i < 2 && whole.Len() != want {
			t.Fatalf("fired with only %d of 3 tokens", i+1)
		}
	}
	if whole.Len() != 1 {
		t.Fatal("join did not fire once third token arrived")
	}
	// Ready at max(5,9,7)=9, but the clock was already at 40 when the
	// third token landed... the third token arrived before Advance(40),
	// so the group was complete at clock 30; fire time clamps to 30.
	if got := whole.peek(0).TS; got != 30 {
		t.Fatalf("join TS = %v, want 30 (clock at third arrival)", got)
	}
}

// TestWeightedArcWithBackpressure combines weights with a capped output:
// the join must not fire while the output is full even though its inputs
// are satisfied, and must fire once the output drains.
func TestWeightedArcWithBackpressure(t *testing.T) {
	n := New("wbp")
	parts := n.AddPlace("parts", 0)
	mid := n.AddPlace("mid", 1)
	gate := n.AddPlace("gate", 0)
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{
		Name: "join", In: []Arc{{Place: parts, Weight: 2}}, Out: []OutArc{{Place: mid}},
	})
	n.AddTransition(&Transition{
		Name: "drain", In: []Arc{{Place: mid}, {Place: gate}}, Out: []OutArc{{Place: out}},
	})
	for i := 0; i < 4; i++ {
		n.Inject(parts, Tok(vclock.Time(i)))
	}
	n.Advance(50)
	if mid.Len() != 1 || parts.Len() != 2 {
		t.Fatalf("mid=%d parts=%d, want second join blocked by full mid", mid.Len(), parts.Len())
	}
	n.Inject(gate, Tok(60))
	n.Inject(gate, Tok(60))
	n.Advance(100)
	if out.Len() != 2 || parts.Len() != 0 {
		t.Fatalf("out=%d parts=%d, want both groups through", out.Len(), parts.Len())
	}
}

// TestSealRebuildAfterStructureChange: a transition added after the net
// has run takes part in the next Advance. (The name is historical: the
// net has no sealed state to rebuild.)
func TestSealRebuildAfterStructureChange(t *testing.T) {
	n := New("reseal")
	in := n.AddPlace("in", 0)
	mid := n.AddPlace("mid", 0)
	n.AddTransition(&Transition{Name: "a", In: []Arc{{Place: in}}, Out: []OutArc{{Place: mid}}})
	n.Inject(in, Tok(0))
	n.Advance(10)
	if mid.Len() != 1 {
		t.Fatal("first stage did not fire")
	}
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{Name: "b", In: []Arc{{Place: mid}}, Out: []OutArc{{Place: out}}})
	n.Advance(20)
	if out.Len() != 1 {
		t.Fatal("transition added after sealing never fired")
	}
}

// TestFiringScratchReuse: the engine hands every callback the same
// scratch Firing, so the fast path must not allocate per firing. The
// pipeline below has no OutFuncs or effects; after warm-up the only
// allocations permitted are place-slice growth, which the pre-sized
// token counts below avoid.
func TestFiringScratchReuse(t *testing.T) {
	n := New("scratch")
	in := n.AddPlace("in", 0)
	q1 := n.AddPlace("q1", 0)
	q2 := n.AddPlace("q2", 0)
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{Name: "t1", In: []Arc{{Place: in}}, Out: []OutArc{{Place: q1}}, Delay: constDelay(3)})
	n.AddTransition(&Transition{Name: "t2", In: []Arc{{Place: q1}}, Out: []OutArc{{Place: q2}}, Delay: constDelay(5)})
	n.AddTransition(&Transition{Name: "t3", In: []Arc{{Place: q2}}, Out: []OutArc{{Place: out}}, Delay: constDelay(7)})
	// Warm up: sizes the scratch and the place backing arrays.
	n.Inject(in, Tok(0))
	n.Advance(1000)
	base := out.Len()
	avg := testing.AllocsPerRun(50, func() {
		n.Inject(in, Tok(n.now))
		n.Advance(n.now + 1000)
	})
	// Token-slice growth inside places is amortized; allow a fraction.
	if avg > 1 {
		t.Fatalf("firing path allocates %.2f objects per task, want ~0", avg)
	}
	if out.Len() <= base {
		t.Fatal("warm loop did not fire")
	}
}

// TestEffectReentryPanics: an Effect that advances its own net would fire
// into the scratch Firing its caller still holds; the engine refuses with
// a panic naming the net, before the inner firing consumes a token.
func TestEffectReentryPanics(t *testing.T) {
	n := New("reenter")
	in := n.AddPlace("in", 0)
	side := n.AddPlace("side", 0)
	n.AddTransition(&Transition{Name: "drain", In: []Arc{{Place: side}}})
	var got any
	sideLeft := -1
	n.AddTransition(&Transition{
		Name: "outer",
		In:   []Arc{{Place: in}},
		Effect: func(f *Firing, done vclock.Time) {
			defer func() {
				got = recover()
				sideLeft = side.Len()
			}()
			n.Inject(side, Tok(f.Time))
			n.Advance(done)
		},
	})
	n.Inject(in, Tok(0))
	n.Advance(10)
	msg, ok := got.(string)
	if !ok || !strings.Contains(msg, "reenter") {
		t.Fatalf("re-entrant Advance recovered %v, want a panic naming net \"reenter\"", got)
	}
	if sideLeft != 1 {
		t.Fatalf("inner firing consumed its token before refusing (side holds %d)", sideLeft)
	}
}
