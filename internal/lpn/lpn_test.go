package lpn

import (
	"testing"
	"testing/quick"

	"nexsim/internal/vclock"
)

// constDelay returns a DelayFunc with a fixed delay.
func constDelay(d vclock.Duration) DelayFunc {
	return func(*Firing) vclock.Duration { return d }
}

// buildPipeline builds a 3-stage pipeline: in -> s1 -> s2 -> out, with
// per-stage delays d1, d2, d3 and stage-2 queue capacity cap2. Each stage
// uses the canonical server-token self-loop so it processes one item at a
// time (occupancy = delay), which is how non-internally-pipelined hardware
// stages are modeled in LPNs.
func buildPipeline(d1, d2, d3 vclock.Duration, cap2 int) (*Net, *Place, *Place) {
	n := New("pipe")
	in := n.AddPlace("in", 0)
	q1 := n.AddPlace("q1", 0)
	q2 := n.AddPlace("q2", cap2)
	out := n.AddPlace("out", 0)
	stage := func(name string, from, to *Place, d vclock.Duration) {
		srv := n.AddPlace(name+".srv", 0)
		srv.Push(Tok(0))
		n.AddTransition(&Transition{
			Name: name,
			In:   []Arc{{Place: from}, {Place: srv}},
			Out: []OutArc{
				{Place: to},
				{Place: srv, Fn: func(f *Firing, done vclock.Time) []Token {
					return []Token{Tok(done)}
				}},
			},
			Delay: constDelay(d),
		})
	}
	stage("stage1", in, q1, d1)
	stage("stage2", q1, q2, d2)
	stage("stage3", q2, out, d3)
	return n, in, out
}

func TestSingleTokenLatency(t *testing.T) {
	n, in, out := buildPipeline(10, 20, 30, 0)
	n.Inject(in, Tok(0))
	n.Advance(vclock.Never - 1)
	if out.Len() != 1 {
		t.Fatalf("out.Len = %d", out.Len())
	}
	if got := out.peek(0).TS; got != 60 {
		t.Fatalf("completion TS = %v, want 60 (sum of stage delays)", got)
	}
}

func TestPipeliningOverlap(t *testing.T) {
	// With equal stage delays d, k tokens injected at time 0 finish at
	// d*3 + (k-1)*d — classic pipeline throughput, not k*3d.
	const d, k = 10, 5
	n, in, out := buildPipeline(d, d, d, 0)
	for i := 0; i < k; i++ {
		n.Inject(in, Tok(0, int64(i)))
	}
	n.Advance(vclock.Never - 1)
	if out.Len() != k {
		t.Fatalf("out.Len = %d", out.Len())
	}
	last := out.peek(k - 1).TS
	want := vclock.Time(3*d + (k-1)*d)
	if last != want {
		t.Fatalf("last completion = %v, want %v", last, want)
	}
}

func TestBackpressure(t *testing.T) {
	// Slow stage3 with a capacity-1 queue in front must throttle stage2.
	n, in, out := buildPipeline(1, 1, 100, 1)
	for i := 0; i < 3; i++ {
		n.Inject(in, Tok(0))
	}
	n.Advance(vclock.Never - 1)
	if out.Len() != 3 {
		t.Fatalf("out.Len = %d", out.Len())
	}
	// Stage3 is the bottleneck: completions separated by 100.
	want := []vclock.Time{102, 202, 302}
	for i, w := range want {
		if got := out.peek(i).TS; got != w {
			t.Errorf("completion[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestAdvanceRespectsBound(t *testing.T) {
	n, in, out := buildPipeline(10, 10, 10, 0)
	n.Inject(in, Tok(0))
	n.Advance(15) // only stage1 (fires at 0) and stage2 (fires at 10) run
	if out.Len() != 0 {
		t.Fatal("token completed before its time")
	}
	if n.now != 15 {
		t.Fatalf("Now = %v, want 15", n.now)
	}
	n.Advance(100)
	if out.Len() != 1 {
		t.Fatal("token missing after full advance")
	}
}

func TestDelayDependsOnAttrs(t *testing.T) {
	n := New("attr")
	in := n.AddPlace("in", 0)
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{
		Name: "proc", In: []Arc{{Place: in}}, Out: []OutArc{{Place: out}},
		Delay: func(f *Firing) vclock.Duration {
			return vclock.Duration(f.Tok(0).Attrs[0]) * 3 // 3 ps per byte
		},
	})
	n.Inject(in, Tok(0, 100))
	n.Advance(vclock.Never - 1)
	if got := out.peek(0).TS; got != 300 {
		t.Fatalf("TS = %v, want 300", got)
	}
}

func TestWeightedArcJoin(t *testing.T) {
	// A join consuming 4 sub-results produces one aggregate.
	n := New("join")
	parts := n.AddPlace("parts", 0)
	whole := n.AddPlace("whole", 0)
	n.AddTransition(&Transition{
		Name: "join", In: []Arc{{Place: parts, Weight: 4}}, Out: []OutArc{{Place: whole}},
	})
	for i := 0; i < 7; i++ {
		n.Inject(parts, Tok(vclock.Time(i)))
	}
	n.Advance(vclock.Never - 1)
	if whole.Len() != 1 {
		t.Fatalf("whole.Len = %d, want 1 (only one full group)", whole.Len())
	}
	if parts.Len() != 3 {
		t.Fatalf("parts.Len = %d, want 3 leftover", parts.Len())
	}
	// Fire time is the max input timestamp of the group: 3.
	if got := whole.peek(0).TS; got != 3 {
		t.Fatalf("join TS = %v, want 3", got)
	}
}

func TestEffectSeesFireAndDoneTimes(t *testing.T) {
	n := New("fx")
	in := n.AddPlace("in", 0)
	out := n.AddPlace("out", 0)
	var fireAt, doneAt vclock.Time
	n.AddTransition(&Transition{
		Name: "dma", In: []Arc{{Place: in}}, Out: []OutArc{{Place: out}},
		Delay: constDelay(50),
		Effect: func(f *Firing, done vclock.Time) {
			fireAt, doneAt = f.Time, done
		},
	})
	n.Inject(in, Tok(7))
	n.Advance(vclock.Never - 1)
	if fireAt != 7 || doneAt != 57 {
		t.Fatalf("fire=%v done=%v, want 7/57", fireAt, doneAt)
	}
}

func TestExternalInjectionReenables(t *testing.T) {
	// Models a DMA-response dependency: a transition joins a request with
	// an externally injected response.
	n := New("dep")
	req := n.AddPlace("req", 0)
	resp := n.AddPlace("resp", 0)
	out := n.AddPlace("out", 0)
	n.AddTransition(&Transition{
		Name: "consume",
		In:   []Arc{{Place: req}, {Place: resp}},
		Out:  []OutArc{{Place: out}},
	})
	n.Inject(req, Tok(0))
	n.Advance(100)
	if out.Len() != 0 {
		t.Fatal("fired without response")
	}
	n.Inject(resp, Tok(150)) // host delivers DMA response at t=150
	n.Advance(200)
	if out.Len() != 1 || out.peek(0).TS != 150 {
		t.Fatalf("out.Len=%d TS=%v, want completion at 150", out.Len(), out.peek(0).TS)
	}
}

func TestValidate(t *testing.T) {
	n := New("bad")
	in := n.AddPlace("in", 0)
	n.AddTransition(&Transition{Name: "t", In: []Arc{{Place: in}}})
	if err := n.Validate(); err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}

	n2 := New("nosrc")
	n2.AddTransition(&Transition{Name: "t"})
	if err := n2.Validate(); err == nil {
		t.Fatal("transition without inputs accepted")
	}

	n3 := New("foreign")
	other := New("other")
	p := other.AddPlace("p", 0)
	n3.AddTransition(&Transition{Name: "t", In: []Arc{{Place: p}}})
	if err := n3.Validate(); err == nil {
		t.Fatal("foreign place accepted")
	}

	n5 := New("by-first")
	q := n5.AddPlace("q", 0)
	n5.AddTransition(&Transition{Name: "t", In: []Arc{{Place: q, By: 1}}})
	if err := n5.Validate(); err == nil {
		t.Fatal("By weight on a first arc accepted")
	}

	n4 := New("dup")
	n4.AddPlace("p", 0)
	n4.AddPlace("p", 0)
	if err := n4.Validate(); err == nil {
		t.Fatal("duplicate place name accepted")
	}
}

// Property: token conservation — tokens injected equal tokens in the net
// for a pure pipeline (no weighted joins or multi-output transitions).
func TestTokenConservationProperty(t *testing.T) {
	f := func(k uint8, d1, d2 uint16) bool {
		n, in, _ := buildPipeline(vclock.Duration(d1), vclock.Duration(d2), 1, 0)
		count := int(k%32) + 1
		for i := 0; i < count; i++ {
			n.Inject(in, Tok(vclock.Time(i)))
		}
		n.Advance(vclock.Never - 1)
		total := 0
		for _, p := range n.places {
			total += p.Len()
		}
		return total == count+3 // injected tokens + 3 server tokens
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion timestamps are monotonically non-decreasing in a
// FIFO pipeline.
func TestFIFOOrderingProperty(t *testing.T) {
	f := func(k uint8, seed uint16) bool {
		n, in, out := buildPipeline(5, 7, 3, 2)
		count := int(k%20) + 2
		for i := 0; i < count; i++ {
			n.Inject(in, Tok(vclock.Time(int(seed)%11*i)))
		}
		n.Advance(vclock.Never - 1)
		if out.Len() != count {
			return false
		}
		for i := 1; i < count; i++ {
			if out.peek(i).TS < out.peek(i-1).TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFiresCounter(t *testing.T) {
	n := New("count")
	in := n.AddPlace("in", 0)
	out := n.AddPlace("out", 0)
	tr := n.AddTransition(&Transition{Name: "t", In: []Arc{{Place: in}}, Out: []OutArc{{Place: out}}})
	for i := 0; i < 5; i++ {
		n.Inject(in, Tok(0))
	}
	n.Advance(10)
	if tr.Fires() != 5 {
		t.Fatalf("Fires = %d, want 5", tr.Fires())
	}
}
