// Package lpn implements the Latency Petri Net (LPN) abstraction that
// DSim's performance track is built on (paper §4.1, following "Performance
// Interfaces for Hardware Accelerators", OSDI'24).
//
// An LPN is a timed Petri net that is "performance-equivalent" to a
// hardware circuit: places model queues and pipeline registers, tokens
// model in-flight work items (carrying scalar attributes such as byte
// counts), and transitions model processing stages whose delay may depend
// on the tokens they consume. Capacity limits on places model
// backpressure. The net computes *when* things happen, never *what* the
// data is — functionality lives in the functional track (package dsim).
//
// Simulation is event-driven: a transition fires at the earliest time all
// of its input tokens are available (and its output places have room), so
// simulation cost scales with the number of work items, not with clock
// cycles.
//
// # Scheduling
//
// The engine picks each firing by scanning the transitions for the least
// (ready time, registration order), recomputing every ready time from its
// arcs' places. The nets are small and closed: a Spec must name a catalog
// benchmark, and the largest net any of them builds has 8 transitions
// (protoacc; JPEG has 7, the sketch example 6, VTA 3), so the scan is a
// few dozen loads and no index has to be kept in step with the marking. A
// model that builds a net of hundreds of transitions should bring an
// enabled-set index back with its own measurement. The firing path is
// allocation-free: firings share a per-net scratch Firing whose token
// slices are grown in place. ref_test.go keeps the original engine
// (scanAdvance/scanNextEvent, fresh allocations per firing) as an
// executable specification that the randomized differential test pins
// this one against, firing for firing.
package lpn

import (
	"fmt"

	"nexsim/internal/vclock"
)

// Token is a work item flowing through the net. TS is the time the token
// becomes available in its place. Attrs carry up to four scalar
// attributes (byte counts, block indices, tags...) used by delay
// functions, output functions and effects.
type Token struct {
	TS    vclock.Time
	Attrs [4]int64
}

// Tok constructs a token available at ts with the given attributes.
func Tok(ts vclock.Time, attrs ...int64) Token {
	t := Token{TS: ts}
	copy(t.Attrs[:], attrs)
	return t
}

// Place is a FIFO queue of tokens. Cap <= 0 means unbounded.
type Place struct {
	Name string
	Cap  int

	tokens []Token
	head   int
}

// Len reports the number of tokens currently in the place (available or
// not).
func (p *Place) Len() int { return len(p.tokens) - p.head }

// Push appends a token. It panics if the place is at capacity — the
// engine's responsibility is to never fire a transition into a full
// place.
func (p *Place) Push(t Token) {
	if p.Cap > 0 && p.Len() >= p.Cap {
		panic("lpn: push into full place " + p.Name)
	}
	p.tokens = append(p.tokens, t)
}

// peek returns the i-th token from the front without removing it.
func (p *Place) peek(i int) Token { return p.tokens[p.head+i] }

func (p *Place) pop() Token {
	t := p.tokens[p.head]
	p.head++
	if p.head == len(p.tokens) {
		p.tokens, p.head = p.tokens[:0], 0
	} else if p.head > 64 && p.head*2 >= len(p.tokens) {
		n := copy(p.tokens, p.tokens[p.head:])
		p.tokens = p.tokens[:n]
		p.head = 0
	}
	return t
}

// Firing is the context passed to delay functions, output functions and
// effects. It exposes the tokens consumed by the transition, in input-arc
// order.
//
// The Firing and its In slices are engine-owned scratch, valid only for
// the duration of the callback; copy tokens out if they must outlive it.
type Firing struct {
	// Time is the instant the transition fires (inputs satisfied).
	Time vclock.Time
	// In holds the consumed tokens grouped per input arc.
	In [][]Token
}

// Tok returns the first token consumed from input arc i.
func (f *Firing) Tok(i int) Token { return f.In[i][0] }

// Arc connects a place to a transition, consuming Weight tokens per
// firing (Weight 0 means 1). By > 0 sets the weight per firing instead:
// it is Attrs[By-1] of the token at the head of the transition's first
// arc, and a weight of 0 takes nothing from the place.
type Arc struct {
	Place  *Place
	Weight int
	By     int
}

// weight returns the arc's weight for a firing whose first-arc token is
// head.
func (a Arc) weight(head *Token) int {
	if a.By > 0 {
		return int(head.Attrs[a.By-1])
	}
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// OutFunc produces the tokens deposited on an output place when a
// transition fires; done is the completion time (fire time + delay). The
// returned slice is read synchronously, so callers may reuse a scratch
// slice across firings.
type OutFunc func(f *Firing, done vclock.Time) []Token

// OutArc deposits tokens on a place after the transition's delay. If Fn
// is nil, one token with the completion timestamp (and the attributes of
// the first consumed token, if any) is deposited. Plain deposits one
// attribute-free token at the completion time without calling Fn — the
// common server-release and credit-return shape, kept allocation-free
// because those arcs fire once per token through every stage.
type OutArc struct {
	Place *Place
	Fn    OutFunc
	Plain bool
}

// DelayFunc computes the service delay of a firing.
type DelayFunc func(f *Firing) vclock.Duration

// EffectFunc runs side effects when a transition fires — DSim models use
// it to issue the DMAs their plans list, inject a token that waits for a
// DMA response, or complete a task (paper §4.3). done is fire time +
// delay.
type EffectFunc func(f *Firing, done vclock.Time)

// Transition is a processing stage. An Effect must not call back into
// its own net's Advance: the engine panics on that re-entry.
type Transition struct {
	Name   string
	In     []Arc
	Out    []OutArc
	Delay  DelayFunc  // nil means zero delay
	Effect EffectFunc // optional

	fires int64
}

// Fires reports how many times the transition has fired.
func (t *Transition) Fires() int64 { return t.fires }

// PerCycle returns a DelayFunc of n cycles at frequency clk.
func PerCycle(clk vclock.Hz, n int64) DelayFunc {
	d := clk.CyclesDur(n)
	return func(*Firing) vclock.Duration { return d }
}

// Net is a complete Latency Petri Net.
type Net struct {
	Name        string
	places      []*Place
	transitions []*Transition
	now         vclock.Time

	// Reusable firing scratch.
	inFire      bool      // only set inside one fire() call
	scratch     Firing    // per-firing scratch, dead between firings
	scratchBufs [][]Token // pooled buffers, contents dead between firings
}

// New returns an empty net.
func New(name string) *Net { return &Net{Name: name} }

// AddPlace registers and returns a new place.
func (n *Net) AddPlace(name string, capacity int) *Place {
	p := &Place{Name: name, Cap: capacity}
	n.places = append(n.places, p)
	return p
}

// AddTransition registers a transition. Transitions are examined in
// registration order, which makes simulation deterministic.
func (n *Net) AddTransition(t *Transition) *Transition {
	n.transitions = append(n.transitions, t)
	return t
}

// Inject places a token directly (used for task arrival and for external
// responses such as DMA completions).
func (n *Net) Inject(p *Place, t Token) { p.Push(t) }

// readyTime computes the earliest time tr could fire, clamped to now, or
// (Never, false) if it cannot fire with the tokens currently present.
func (n *Net) readyTime(tr *Transition) (vclock.Time, bool) {
	ready := n.now
	var head *Token
	for _, a := range tr.In {
		w := a.weight(head)
		if a.Place.Len() < w {
			return vclock.Never, false
		}
		if head == nil {
			head = &a.Place.tokens[a.Place.head]
		}
		for i := 0; i < w; i++ {
			if ts := a.Place.peek(i).TS; ts > ready {
				ready = ts
			}
		}
	}
	// Backpressure: every output place must have room for at least one
	// token. (Output token counts are usually 1; OutFuncs producing more
	// must leave headroom via place capacities.)
	for _, o := range tr.Out {
		if o.Place.Cap > 0 && o.Place.Len() >= o.Place.Cap {
			return vclock.Never, false
		}
	}
	return ready, true
}

// next returns the transition minimizing (ready time, registration
// order) — the same deterministic choice the reference engine makes — or
// ok=false if the net is quiescent.
//
//simlint:hotpath scanned once per firing; every catalog net has at most 8 transitions (protoacc 8, JPEG 7, VTA 3)
func (n *Net) next() (*Transition, vclock.Time, bool) {
	var best *Transition
	bestAt := vclock.Never
	for _, tr := range n.transitions {
		if at, ok := n.readyTime(tr); ok && at < bestAt {
			best, bestAt = tr, at
		}
	}
	return best, bestAt, best != nil
}

// NextEvent returns the earliest time any transition can fire, or
// (vclock.Never, false) if the net is quiescent.
func (n *Net) NextEvent() (vclock.Time, bool) {
	_, at, ok := n.next()
	return at, ok
}

// Now returns the net's clock: the latest Advance target or firing.
func (n *Net) Now() vclock.Time { return n.now }

// Advance fires transitions in timestamp order until no transition can
// fire at or before `until`, then moves the net's clock up to `until`. It
// returns the number of firings; a stale `until` fires nothing, since no
// transition fires before the clock. External injections (DMA completions)
// between Advance calls can re-enable transitions.
//
//simlint:hotpath the per-work-item engine entry; cost scales with firings
func (n *Net) Advance(until vclock.Time) int {
	fired := 0
	for {
		tr, at, ok := n.next()
		if !ok || at > until {
			break
		}
		n.fire(tr, at)
		fired++
	}
	if until > n.now {
		n.now = until
	}
	return fired
}

// fillFiring assembles the firing context for tr at time at in the
// per-net scratch, consuming the input tokens. A firing from inside a
// firing's callbacks (an Effect advancing its own net) would overwrite
// the scratch the outer callbacks still hold, so it panics instead; no
// model's Effect does more than issue DMAs, inject tokens or complete a
// task.
//
//simlint:hotpath runs for every firing; scratch reuse is the point
func (n *Net) fillFiring(tr *Transition, at vclock.Time) *Firing {
	if n.inFire {
		panic("lpn " + n.Name + ": transition " + tr.Name + " fired from inside a firing (an Effect re-entered Advance)")
	}
	nIn := len(tr.In)
	f := &n.scratch
	f.Time = at
	if cap(f.In) < nIn {
		f.In = make([][]Token, nIn) //simlint:allow hotpath-alloc grows to the widest transition once, then reused
	}
	for len(n.scratchBufs) < nIn {
		n.scratchBufs = append(n.scratchBufs, nil) //simlint:allow hotpath-alloc grows to the widest transition once, then reused
	}
	f.In = f.In[:nIn]
	for i, a := range tr.In {
		var head *Token
		if i > 0 {
			head = &f.In[0][0]
		}
		w := a.weight(head)
		buf := n.scratchBufs[i]
		if cap(buf) < w {
			buf = make([]Token, w) //simlint:allow hotpath-alloc grows to the widest arc once, then reused
		}
		buf = buf[:w]
		for j := range buf {
			buf[j] = a.Place.pop()
		}
		n.scratchBufs[i] = buf
		f.In[i] = buf
	}
	return f
}

//simlint:hotpath fires once per work item per stage; Token values stay on the stack
func (n *Net) fire(tr *Transition, at vclock.Time) {
	if at > n.now {
		n.now = at
	}
	f := n.fillFiring(tr, at)
	n.inFire = true
	var d vclock.Duration
	if tr.Delay != nil {
		d = tr.Delay(f)
	}
	done := at.Add(d)
	for _, o := range tr.Out {
		if o.Plain {
			o.Place.Push(Token{TS: done})
			continue
		}
		if o.Fn != nil {
			for _, t := range o.Fn(f, done) {
				o.Place.Push(t)
			}
			continue
		}
		t := Token{TS: done}
		if len(f.In) > 0 && len(f.In[0]) > 0 {
			t.Attrs = f.In[0][0].Attrs
		}
		o.Place.Push(t)
	}
	if tr.Effect != nil {
		tr.Effect(f, done)
	}
	n.inFire = false
	tr.fires++
}

// Validate performs structural checks — every transition must have at
// least one input arc, all arcs must reference places registered in this
// net, and names must be unique.
func (n *Net) Validate() error {
	known := make(map[*Place]bool, len(n.places))
	names := make(map[string]bool)
	for _, p := range n.places {
		known[p] = true
		if names[p.Name] {
			return fmt.Errorf("lpn %s: duplicate place name %q", n.Name, p.Name)
		}
		names[p.Name] = true
	}
	tnames := make(map[string]bool)
	for _, tr := range n.transitions {
		if tnames[tr.Name] {
			return fmt.Errorf("lpn %s: duplicate transition name %q", n.Name, tr.Name)
		}
		tnames[tr.Name] = true
		if len(tr.In) == 0 {
			return fmt.Errorf("lpn %s: transition %q has no input arcs (would fire forever)", n.Name, tr.Name)
		}
		if tr.In[0].By > 0 {
			return fmt.Errorf("lpn %s: transition %q takes its first arc's weight from its own token", n.Name, tr.Name)
		}
		for _, a := range tr.In {
			if !known[a.Place] {
				return fmt.Errorf("lpn %s: transition %q consumes from foreign place %q", n.Name, tr.Name, a.Place.Name)
			}
		}
		for _, o := range tr.Out {
			if !known[o.Place] {
				return fmt.Errorf("lpn %s: transition %q produces into foreign place %q", n.Name, tr.Name, o.Place.Name)
			}
		}
	}
	return nil
}
