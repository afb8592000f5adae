package lpn

import (
	"fmt"
	"testing"

	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// The randomized differential test: generate layered random nets —
// weighted arcs, per-firing (By) weights of 0, 1 or 2, capacity-bounded
// places, token-dependent delays, OutFuncs, effects — and drive two
// structurally identical instances through the same schedule of
// injections, Advance bounds and NextEvent probes: one on the engine,
// one on the reference engine in ref_test.go. The firing logs (name,
// fire time, done time), clocks, NextEvent answers and final markings
// must agree exactly; determinism of the experiment tables rests on
// this.

// genNet builds a random layered net from seed. Transitions consume from
// lower layers and produce into higher ones, so every run quiesces. The
// returned log records each firing.
func genNet(seed uint64) (n *Net, places []*Place, log *[]string) {
	rng := xrand.New(seed).Derive("net")
	n = New(fmt.Sprintf("rand-%d", seed))
	log = new([]string)

	nPlaces := 4 + rng.Intn(8)
	places = make([]*Place, nPlaces)
	for i := range places {
		cap := 0
		if rng.Intn(3) == 0 {
			cap = 1 + rng.Intn(4)
		}
		places[i] = n.AddPlace(fmt.Sprintf("p%d", i), cap)
	}

	nTrans := 2 + rng.Intn(7)
	for t := 0; t < nTrans; t++ {
		// Inputs from places [0, nPlaces-2]; outputs strictly above the
		// highest input, so the flow graph is acyclic.
		// Arc places are deduplicated: the engine treats each arc
		// independently (per-arc token count and headroom checks), so two
		// arcs on one place would be an invalid net, not a scheduler case.
		nIn := 1 + rng.Intn(2)
		maxIn := 0
		used := map[int]bool{}
		var in []Arc
		for a := 0; a < nIn; a++ {
			pi := rng.Intn(nPlaces - 1)
			if used[pi] {
				continue
			}
			used[pi] = true
			if pi > maxIn {
				maxIn = pi
			}
			arc := Arc{Place: places[pi], Weight: 1 + rng.Intn(2)}
			if len(in) > 0 && rng.Intn(3) == 0 {
				// Per-firing weight 0, 1 or 2 from the first arc's token.
				arc.By = 3
			}
			in = append(in, arc)
		}
		var out []OutArc
		nOut := rng.Intn(3)
		usedOut := map[int]bool{}
		for o := 0; o < nOut; o++ {
			pi := maxIn + 1 + rng.Intn(nPlaces-maxIn-1)
			if usedOut[pi] {
				continue
			}
			usedOut[pi] = true
			oa := OutArc{Place: places[pi]}
			if rng.Intn(3) == 0 {
				// OutFunc producing 0..2 derived tokens. Capacity-bounded
				// targets keep the default single-token arc so the
				// engine's headroom check stays sufficient.
				if places[pi].Cap == 0 {
					k := rng.Intn(3)
					oa.Fn = func(f *Firing, done vclock.Time) []Token {
						toks := make([]Token, k)
						for i := range toks {
							toks[i] = Tok(done, f.Tok(0).Attrs[0]+int64(i))
						}
						return toks
					}
				}
			}
			out = append(out, oa)
		}
		tr := &Transition{Name: fmt.Sprintf("t%d", t), In: in, Out: out}
		switch rng.Intn(3) {
		case 0:
			tr.Delay = constDelay(vclock.Duration(1 + rng.Intn(50)))
		case 1:
			mul := vclock.Duration(1 + rng.Intn(5))
			tr.Delay = func(f *Firing) vclock.Duration {
				return mul * vclock.Duration(f.Tok(0).Attrs[0]%7+1)
			}
		}
		name := tr.Name
		tr.Effect = func(f *Firing, done vclock.Time) {
			*log = append(*log, fmt.Sprintf("%s@%d..%d/%d", name, f.Time, done, f.Tok(0).Attrs[0]))
		}
		n.AddTransition(tr)
	}
	return n, places, log
}

// op is one step of the driver schedule.
type op struct {
	kind  int // 0 inject, 1 advance, 2 next-event
	place int
	tok   Token
	until vclock.Time
}

func genSchedule(seed uint64, nPlaces int) []op {
	rng := xrand.New(seed).Derive("sched")
	var ops []op
	t := vclock.Time(0)
	for i := 0; i < 24+rng.Intn(24); i++ {
		switch rng.Intn(5) {
		case 0, 1, 2:
			ops = append(ops, op{
				kind:  0,
				place: rng.Intn(nPlaces),
				tok:   Tok(t+vclock.Time(rng.Intn(40)), int64(rng.Intn(9)), int64(rng.Intn(100)), int64(rng.Intn(3))),
			})
		case 3:
			t += vclock.Time(rng.Intn(120))
			ops = append(ops, op{kind: 1, until: t})
		case 4:
			ops = append(ops, op{kind: 2})
		}
	}
	ops = append(ops, op{kind: 1, until: t + 100000})
	return ops
}

// injectable reports whether a place can accept one more token (the
// driver must not trip the full-place panic).
func injectable(p *Place) bool { return p.Cap <= 0 || p.Len() < p.Cap }

// marking renders a place's tokens for comparison.
func marking(places []*Place) []string {
	var out []string
	for _, p := range places {
		s := p.Name + ":"
		for i := 0; i < p.Len(); i++ {
			tk := p.peek(i)
			s += fmt.Sprintf("(%d;%d,%d)", tk.TS, tk.Attrs[0], tk.Attrs[1])
		}
		out = append(out, s)
	}
	return out
}

func runDifferential(t *testing.T, seed uint64) int {
	t.Helper()
	inc, incPlaces, incLog := genNet(seed)
	ref, refPlaces, refLog := genNet(seed)
	sched := genSchedule(seed, len(incPlaces))

	for i, o := range sched {
		switch o.kind {
		case 0:
			// Skip the injection on both nets unless both can take it
			// (identical state, so they always agree).
			if injectable(incPlaces[o.place]) && injectable(refPlaces[o.place]) {
				inc.Inject(incPlaces[o.place], o.tok)
				ref.Inject(refPlaces[o.place], o.tok)
			}
		case 1:
			fi := inc.Advance(o.until)
			fr := ref.scanAdvance(o.until)
			if fi != fr {
				t.Fatalf("seed %d op %d: Advance(%d) fired %d (engine) vs %d (reference)",
					seed, i, o.until, fi, fr)
			}
		case 2:
			ai, oki := inc.NextEvent()
			ar, okr := ref.scanNextEvent()
			if ai != ar || oki != okr {
				t.Fatalf("seed %d op %d: NextEvent %v,%v (engine) vs %v,%v (reference)",
					seed, i, ai, oki, ar, okr)
			}
		}
	}

	if inc.now != ref.now {
		t.Fatalf("seed %d: clock %v vs %v", seed, inc.now, ref.now)
	}
	li, lr := *incLog, *refLog
	if len(li) != len(lr) {
		t.Fatalf("seed %d: %d firings (engine) vs %d (reference)\neng: %v\nref: %v",
			seed, len(li), len(lr), li, lr)
	}
	for i := range li {
		if li[i] != lr[i] {
			t.Fatalf("seed %d: firing %d diverges: %q vs %q", seed, i, li[i], lr[i])
		}
	}
	mi, mr := marking(incPlaces), marking(refPlaces)
	for i := range mi {
		if mi[i] != mr[i] {
			t.Fatalf("seed %d: final marking of %s diverges:\n  inc %s\n  ref %s",
				seed, incPlaces[i].Name, mi[i], mr[i])
		}
	}
	for i, tr := range inc.transitions {
		if tr.fires != ref.transitions[i].fires {
			t.Fatalf("seed %d: %s fired %d vs %d times", seed, tr.Name, tr.fires, ref.transitions[i].fires)
		}
	}
	return len(li)
}

// TestDifferentialIncrementalVsReference runs the differential check over
// 1200 generated nets with fixed seeds. (The name is historical: the
// engine it checks is now a scan too, with a reused scratch Firing.)
func TestDifferentialIncrementalVsReference(t *testing.T) {
	nets := 1200
	if testing.Short() {
		nets = 150
	}
	total := 0
	for seed := 0; seed < nets; seed++ {
		total += runDifferential(t, uint64(seed))
	}
	// Guard against a vacuous pass: the corpus must actually exercise the
	// firing path, not just quiescent nets.
	if total < nets {
		t.Fatalf("differential corpus fired only %d transitions over %d nets", total, nets)
	}
	t.Logf("%d nets, %d total firings agreed", nets, total)
}
