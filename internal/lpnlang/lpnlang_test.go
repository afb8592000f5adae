package lpnlang

import (
	"testing"

	"nexsim/internal/lpn"
	"nexsim/internal/vclock"
)

func TestStageThroughput(t *testing.T) {
	// One server, 10 cycles per item at 1 GHz => items complete 10ns apart.
	b := NewBuilder("m", 1*vclock.GHz)
	in := b.Queue("in", 0)
	out := b.Queue("out", 0)
	b.Stage("s", in, out, b.Cycles(10))
	n := b.MustBuild()
	for i := 0; i < 3; i++ {
		n.Inject(in, lpn.Tok(0))
	}
	n.Advance(vclock.Never - 1)
	if out.Len() != 3 {
		t.Fatalf("out.Len = %d", out.Len())
	}
}

// drain adds a zero-delay transition that consumes p's tokens as they
// become available, and returns the times it consumed them at.
func drain(n *lpn.Net, p *lpn.Place) *[]vclock.Time {
	var at []vclock.Time
	n.AddTransition(&lpn.Transition{Name: "drain", In: []lpn.Arc{{Place: p}},
		Effect: func(_ *lpn.Firing, done vclock.Time) { at = append(at, done) }})
	return &at
}

func TestParallelServers(t *testing.T) {
	// 4 servers, 100ns service: 4 items all finish at 100ns; 8 items
	// finish in two waves (100ns, 200ns).
	b := NewBuilder("m", 1*vclock.GHz)
	in := b.Queue("in", 0)
	out := b.Queue("out", 0)
	b.Stage("s", in, out, b.Cycles(100), Servers(4))
	n := b.MustBuild()
	done := drain(n, out)
	for i := 0; i < 8; i++ {
		n.Inject(in, lpn.Tok(0))
	}
	// First wave.
	t100 := vclock.Time(100 * vclock.Nanosecond)
	t200 := vclock.Time(200 * vclock.Nanosecond)
	n.Advance(t100)
	if got := len(*done); got != 4 {
		t.Fatalf("after 100ns ready completions = %d, want 4", got)
	}
	n.Advance(t200)
	if got := len(*done); got != 8 {
		t.Fatalf("after 200ns ready completions = %d, want 8", got)
	}
}

func TestCreditsThrottle(t *testing.T) {
	// Producer needs a credit per item; consumer returns credits. With 2
	// credits and a slow consumer, the producer is throttled.
	b := NewBuilder("m", 1*vclock.GHz)
	in := b.Queue("in", 0)
	mid := b.Queue("mid", 0)
	out := b.Queue("out", 0)
	credits := b.Credits("credits", 2)
	b.Stage("prod", in, mid, b.Cycles(1), AlsoConsume(credits, 1))
	b.Stage("cons", mid, out, b.Cycles(1000), AlsoProduce(credits, ReturnCredit))
	n := b.MustBuild()
	for i := 0; i < 4; i++ {
		n.Inject(in, lpn.Tok(0))
	}
	n.Advance(vclock.Time(500 * vclock.Nanosecond))
	// Two items claimed credits; the other two are stuck in `in`.
	if in.Len() != 2 {
		t.Fatalf("in.Len = %d, want 2 blocked", in.Len())
	}
	n.Advance(vclock.Never - 1)
	if out.Len() != 4 {
		t.Fatalf("out.Len = %d, want all done eventually", out.Len())
	}
}

func TestCyclesAttrDelay(t *testing.T) {
	b := NewBuilder("m", 2*vclock.GHz) // 500ps cycle
	in := b.Queue("in", 0)
	out := b.Queue("out", 0)
	b.Stage("s", in, out, b.CyclesAttr(10, 2, 0)) // 10 + 2*bytes cycles
	n := b.MustBuild()
	done := drain(n, out)
	n.Inject(in, lpn.Tok(0, 45)) // 10+90 = 100 cycles = 50ns
	n.Advance(vclock.Never - 1)
	want := vclock.Time(50 * vclock.Nanosecond)
	if len(*done) != 1 || (*done)[0] != want {
		t.Fatalf("completions at %v, want one at %v", *done, want)
	}
}

func TestBuildRejectsNilInput(t *testing.T) {
	b := NewBuilder("m", 1*vclock.GHz)
	out := b.Queue("out", 0)
	b.Stage("s", nil, out, b.Cycles(1))
	if _, err := b.Build(); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestEffectFires(t *testing.T) {
	b := NewBuilder("m", 1*vclock.GHz)
	in := b.Queue("in", 0)
	count := 0
	b.Stage("s", in, nil, b.Cycles(1), Effect(func(*lpn.Firing, vclock.Time) { count++ }))
	n := b.MustBuild()
	n.Inject(in, lpn.Tok(0))
	n.Inject(in, lpn.Tok(0))
	n.Advance(vclock.Never - 1)
	if count != 2 {
		t.Fatalf("effect ran %d times, want 2", count)
	}
}

func TestOutTokensOption(t *testing.T) {
	// A splitter: one input token fans out into 3 output tokens.
	b := NewBuilder("s", 1*vclock.GHz)
	in := b.Queue("in", 0)
	out := b.Queue("out", 0)
	b.Stage("split", in, out, b.Cycles(2), OutTokens(
		func(f *lpn.Firing, done vclock.Time) []lpn.Token {
			return []lpn.Token{lpn.Tok(done, 1), lpn.Tok(done, 2), lpn.Tok(done, 3)}
		}))
	n := b.MustBuild()
	n.Inject(in, lpn.Tok(0))
	n.Advance(vclock.Never - 1)
	if out.Len() != 3 {
		t.Fatalf("out.Len = %d, want 3", out.Len())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b := NewBuilder("bad", 1*vclock.GHz)
	b.Stage("s", nil, nil, nil)
	b.MustBuild()
}

func TestAlsoConsumeByJoinsOnlyWhenAsked(t *testing.T) {
	// Attribute 0 of an item says whether it takes a dependency token:
	// the first item does not and runs at once, the second waits for the
	// token that arrives at 50ns, and the token is gone after it.
	b := NewBuilder("m", 1*vclock.GHz)
	in := b.Queue("in", 0)
	dep := b.Queue("dep", 0)
	out := b.Queue("out", 0)
	b.Stage("s", in, out, b.Cycles(10), AlsoConsumeBy(dep, 0))
	n := b.MustBuild()
	done := drain(n, out)
	n.Inject(in, lpn.Tok(0, 0))
	n.Inject(in, lpn.Tok(0, 1))
	n.Advance(40 * vclock.Time(vclock.Nanosecond))
	if len(*done) != 1 || (*done)[0] != vclock.Time(10*vclock.Nanosecond) {
		t.Fatalf("before the token: completions %v, want [10ns]", *done)
	}
	n.Inject(dep, lpn.Tok(vclock.Time(50*vclock.Nanosecond)))
	n.Advance(vclock.Never - 1)
	if len(*done) != 2 || (*done)[1] != vclock.Time(60*vclock.Nanosecond) || dep.Len() != 0 {
		t.Fatalf("after the token: completions %v and %d dep tokens left, want [10ns 60ns] and 0", *done, dep.Len())
	}
}
