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
// of its input tokens are available (and its guard holds, and its output
// places have room), so simulation cost scales with the number of work
// items, not with clock cycles.
//
// # Incremental scheduling
//
// The engine is an incremental enabled-set scheduler. Seal (run by
// Validate, or lazily on first use) builds a place→transition adjacency;
// afterwards each transition's ready time is cached and recomputed only
// when an adjacent place changes — a token push or pop, capacity freed by
// a downstream pop, or an external Inject. Enabled transitions sit in a
// min-heap keyed by (ready time, registration order), so selecting the
// next firing is O(log T) instead of a full O(transitions × arcs) rescan,
// and a firing invalidates only the handful of transitions watching the
// places it touched. Guarded transitions are re-examined on every engine
// entry and after every firing, because guards may read state outside the
// net (the old engine re-evaluated them on every scan). The firing fast
// path is allocation-free: guard probes and firings share a per-net
// scratch Firing whose token slices are grown in place. The pre-rework
// full-rescan engine lives on in ref_test.go (scanAdvance/scanNextEvent),
// an executable specification that the randomized differential test pins
// this scheduler against, firing for firing.
package lpn

import (
	"fmt"

	"nexsim/internal/vclock"
)

// Token is a work item flowing through the net. TS is the time the token
// becomes available in its place. Attrs carry up to four scalar
// attributes (byte counts, block indices, tags...) used by delay
// functions and guards.
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

	// Set by Seal: the owning net and the transitions whose readiness
	// depends on this place (consumers, plus producers into it when it
	// is capacity-bounded).
	net      *Net
	watchers []int32

	// gen counts mutations; the memo fields amortize ReadyLen for
	// polling callers that re-ask at the same instant between mutations.
	gen     uint64
	memoGen uint64
	memoNow vclock.Time
	memoCnt int
}

// Len reports the number of tokens currently in the place (available or
// not).
func (p *Place) Len() int { return len(p.tokens) - p.head }

// ReadyLen reports the number of tokens whose timestamp is at or before
// now, i.e. completions that are externally visible at that instant.
// (The engine fires transitions eagerly, so a place can hold tokens with
// future timestamps.) Repeated queries at the same instant between
// mutations are O(1) via a ready-count memo.
func (p *Place) ReadyLen(now vclock.Time) int {
	if p.memoGen == p.gen && p.memoNow == now && p.gen != 0 {
		return p.memoCnt
	}
	n := 0
	for i := 0; i < p.Len(); i++ {
		if p.peek(i).TS <= now {
			n++
		}
	}
	p.memoGen, p.memoNow, p.memoCnt = p.gen, now, n
	return n
}

// Peek returns the i-th token from the front without removing it.
func (p *Place) Peek(i int) Token { return p.peek(i) }

// Pop removes and returns the front token. It panics on an empty place.
func (p *Place) Pop() Token { return p.pop() }

// Push appends a token. It panics if the place is at capacity — the
// engine's responsibility is to never fire a transition into a full
// place.
func (p *Place) Push(t Token) {
	if p.Cap > 0 && p.Len() >= p.Cap {
		panic("lpn: push into full place " + p.Name)
	}
	p.tokens = append(p.tokens, t)
	p.touched()
}

// peek returns the i-th token from the front without removing it.
func (p *Place) peek(i int) Token { return p.tokens[p.head+i] }

func (p *Place) pop() Token {
	t := p.tokens[p.head]
	p.head++
	if p.head > 64 && p.head*2 >= len(p.tokens) {
		n := copy(p.tokens, p.tokens[p.head:])
		p.tokens = p.tokens[:n]
		p.head = 0
	}
	p.touched()
	return t
}

// touched records a mutation and invalidates the cached ready times of
// every transition adjacent to this place.
func (p *Place) touched() {
	p.gen++
	if p.net != nil && p.net.sealed {
		for _, w := range p.watchers {
			p.net.markDirty(w)
		}
	}
}

// Firing is the context passed to delay functions, guards and effects. It
// exposes the tokens consumed by the transition, in input-arc order.
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
// firing (Weight 0 means 1).
type Arc struct {
	Place  *Place
	Weight int
}

func (a Arc) weight() int {
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

// GuardFunc decides whether a transition may fire given the tokens it
// would consume. Guards must be side-effect free: the engine probes them
// an unspecified number of times per firing decision.
type GuardFunc func(f *Firing) bool

// EffectFunc runs side effects when a transition fires — DSim uses this
// to emit tagged DMA requests (paper §4.3). done is fire time + delay.
type EffectFunc func(f *Firing, done vclock.Time)

// Transition is a processing stage. Its structure (arcs, guard, delay,
// effect) must not change after the net is sealed.
type Transition struct {
	Name   string
	In     []Arc
	Out    []OutArc
	Delay  DelayFunc  // nil means zero delay
	Guard  GuardFunc  // nil means always enabled
	Effect EffectFunc // optional

	idx   int32
	fires int64
}

// Fires reports how many times the transition has fired.
func (t *Transition) Fires() int64 { return t.fires }

// Const returns a DelayFunc with a fixed delay.
func Const(d vclock.Duration) DelayFunc {
	return func(*Firing) vclock.Duration { return d }
}

// PerCycle returns a DelayFunc of n cycles at frequency clk.
func PerCycle(clk vclock.Hz, n int64) DelayFunc {
	d := clk.CyclesDur(n)
	return func(*Firing) vclock.Duration { return d }
}

// transState is the scheduler's cached view of one transition.
type transState struct {
	at    vclock.Time // cached ready time (valid when pos >= 0)
	pos   int32       // position in the enabled heap, -1 if absent
	dirty bool        // ready time must be recomputed
}

// Net is a complete Latency Petri Net.
type Net struct {
	Name        string
	places      []*Place
	transitions []*Transition
	now         vclock.Time

	// Incremental scheduler state (built by Seal). RestoreFrom unseals
	// the net and the next engine call rebuilds all of it from the
	// restored marking, so none of it is snapshot state.
	sealed  bool         //simlint:transient rebuilt: RestoreFrom unseals, next call re-Seals
	state   []transState //simlint:transient derived from marking by Seal
	heap    []int32      //simlint:transient enabled transitions min-keyed by (at, idx); derived by Seal
	dirty   []int32      //simlint:transient stale-ready worklist; derived by Seal
	guarded []int32      //simlint:transient guard re-check list; derived by Seal

	// Reusable firing scratch for guard probes and firings.
	inFire      bool      //simlint:transient only set inside one fire() call
	scratch     Firing    //simlint:transient per-firing scratch, dead between firings
	scratchBufs [][]Token //simlint:transient pooled buffers, contents dead between firings
}

// New returns an empty net.
func New(name string) *Net { return &Net{Name: name} }

// AddPlace registers and returns a new place. Adding to a sealed net
// unseals it; the next engine call re-seals.
func (n *Net) AddPlace(name string, capacity int) *Place {
	p := &Place{Name: name, Cap: capacity}
	n.places = append(n.places, p)
	n.sealed = false
	return p
}

// AddTransition registers a transition. Transitions are examined in
// registration order, which makes simulation deterministic. Adding to a
// sealed net unseals it; the next engine call re-seals.
func (n *Net) AddTransition(t *Transition) *Transition {
	n.transitions = append(n.transitions, t)
	n.sealed = false
	return t
}

// Now returns the net's local virtual time.
func (n *Net) Now() vclock.Time { return n.now }

// Inject places a token directly (used for task arrival and for external
// responses such as DMA completions). On a sealed net the push
// invalidates exactly the transitions watching p.
func (n *Net) Inject(p *Place, t Token) { p.Push(t) }

// Seal freezes the net's structure and builds the place→transition
// adjacency the incremental scheduler runs on: each place records the
// transitions that consume from it, plus the transitions that produce
// into it when it is capacity-bounded (a pop there frees backpressure).
// Validate calls Seal; Advance, NextEvent and Quiescent seal lazily, so
// explicit calls are never required.
func (n *Net) Seal() {
	seen := make(map[*Place]bool, len(n.places))
	reset := func(p *Place) {
		if !seen[p] {
			seen[p] = true
			p.net = n
			p.watchers = p.watchers[:0]
		}
	}
	for _, p := range n.places {
		reset(p)
	}
	n.guarded = n.guarded[:0]
	for i, tr := range n.transitions {
		tr.idx = int32(i)
		if tr.Guard != nil {
			n.guarded = append(n.guarded, int32(i))
		}
		for _, a := range tr.In {
			reset(a.Place)
			addWatcher(a.Place, int32(i))
		}
		for _, o := range tr.Out {
			reset(o.Place)
			if o.Place.Cap > 0 {
				addWatcher(o.Place, int32(i))
			}
		}
	}
	n.state = make([]transState, len(n.transitions))
	n.heap = n.heap[:0]
	n.dirty = n.dirty[:0]
	for i := range n.state {
		n.state[i] = transState{pos: -1, dirty: true}
		n.dirty = append(n.dirty, int32(i))
	}
	n.sealed = true
}

func addWatcher(p *Place, idx int32) {
	for _, w := range p.watchers {
		if w == idx {
			return
		}
	}
	p.watchers = append(p.watchers, idx)
}

func (n *Net) ensureSealed() {
	if !n.sealed {
		n.Seal()
	}
}

// markDirty queues transition i for a ready-time recompute.
func (n *Net) markDirty(i int32) {
	st := &n.state[i]
	if !st.dirty {
		st.dirty = true
		n.dirty = append(n.dirty, i)
	}
}

// markGuardedDirty re-queues every guarded transition: guards may read
// state outside the net, so they are re-probed on every engine entry and
// after every firing — exactly as often as the rescan engine did.
func (n *Net) markGuardedDirty() {
	for _, i := range n.guarded {
		n.markDirty(i)
	}
}

// flushDirty recomputes every queued transition and restores the heap
// invariant: enabled transitions are in the heap keyed by their current
// ready time, disabled ones are out.
func (n *Net) flushDirty() {
	for len(n.dirty) > 0 {
		i := n.dirty[len(n.dirty)-1]
		n.dirty = n.dirty[:len(n.dirty)-1]
		st := &n.state[i]
		if !st.dirty {
			continue
		}
		st.dirty = false
		at, ok := n.computeReady(n.transitions[i])
		if ok {
			st.at = at
			if st.pos >= 0 {
				n.heapFix(st.pos)
			} else {
				n.heapPush(i)
			}
		} else if st.pos >= 0 {
			n.heapRemove(st.pos)
		}
	}
}

// computeReady computes the earliest time tr could fire, or
// (Never, false) if it cannot fire with the tokens currently present.
func (n *Net) computeReady(tr *Transition) (vclock.Time, bool) {
	ready := n.now
	for _, a := range tr.In {
		w := a.weight()
		if a.Place.Len() < w {
			return vclock.Never, false
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
	if tr.Guard != nil {
		if !tr.Guard(n.fillFiring(tr, ready, false)) {
			return vclock.Never, false
		}
	}
	return ready, true
}

// minReady returns the transition minimizing (ready time clamped to now,
// registration order) — the same deterministic choice the rescan engine
// makes — or ok=false if the net is quiescent.
func (n *Net) minReady() (*Transition, vclock.Time, bool) {
	n.flushDirty()
	for len(n.heap) > 0 {
		i := n.heap[0]
		st := &n.state[i]
		if st.at >= n.now {
			return n.transitions[i], st.at, true
		}
		// The clock moved past a cached ready time, so the effective
		// fire time clamps to now. Guarded transitions re-probe (the
		// guard observes the fire time); plain ones just re-key.
		if n.transitions[i].Guard != nil {
			n.markDirty(i)
			n.flushDirty()
			continue
		}
		st.at = n.now
		n.heapDown(0)
	}
	return nil, vclock.Never, false
}

// NextEvent returns the earliest time any transition can fire, or
// (vclock.Never, false) if the net is quiescent.
func (n *Net) NextEvent() (vclock.Time, bool) {
	n.ensureSealed()
	n.markGuardedDirty()
	_, at, ok := n.minReady()
	return at, ok
}

// Advance fires transitions in timestamp order until no transition can
// fire at or before `until`, then sets the net's clock to `until`. It
// returns the number of firings. External injections (DMA completions)
// between Advance calls can re-enable transitions.
//
//simlint:hotpath the per-work-item engine entry; cost scales with firings
func (n *Net) Advance(until vclock.Time) int {
	n.ensureSealed()
	fired := 0
	for {
		// Deterministic choice: earliest ready time, tie-broken by
		// transition registration order.
		n.markGuardedDirty()
		tr, at, ok := n.minReady()
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
// per-net scratch, consuming the input tokens when consume is true and
// peeking them for a guard probe otherwise. Re-entrant engine calls (an
// effect advancing the net again) fall back to a fresh allocation so the
// in-flight scratch is left alone.
//
//simlint:hotpath runs for every guard probe and firing; scratch reuse is the point
func (n *Net) fillFiring(tr *Transition, at vclock.Time, consume bool) *Firing {
	nIn := len(tr.In)
	if n.inFire {
		// Re-entrant path: rare by construction (only effects that
		// advance the net again), so a fresh context is fine.
		f := &Firing{Time: at, In: make([][]Token, nIn)} //simlint:allow hotpath-alloc re-entrant fallback, not the steady state
		for i, a := range tr.In {
			buf := make([]Token, a.weight()) //simlint:allow hotpath-alloc re-entrant fallback, not the steady state
			fillArc(a.Place, buf, consume)
			f.In[i] = buf
		}
		return f
	}
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
		w := a.weight()
		buf := n.scratchBufs[i]
		if cap(buf) < w {
			buf = make([]Token, w) //simlint:allow hotpath-alloc grows to the widest arc once, then reused
		}
		buf = buf[:w]
		fillArc(a.Place, buf, consume)
		n.scratchBufs[i] = buf
		f.In[i] = buf
	}
	return f
}

func fillArc(p *Place, buf []Token, consume bool) {
	for j := range buf {
		if consume {
			buf[j] = p.pop()
		} else {
			buf[j] = p.peek(j)
		}
	}
}

//simlint:hotpath fires once per work item per stage; Token values stay on the stack
func (n *Net) fire(tr *Transition, at vclock.Time) {
	if at > n.now {
		n.now = at
	}
	f := n.fillFiring(tr, at, true)
	wasInFire := n.inFire
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
	n.inFire = wasInFire
	tr.fires++
}

// ---- Enabled-set heap (min by cached ready time, ties by registration
// order, positions tracked for O(log n) updates) ------------------------

func (n *Net) heapLess(a, b int32) bool {
	sa, sb := &n.state[a], &n.state[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return a < b
}

func (n *Net) heapSwap(i, j int32) {
	h := n.heap
	h[i], h[j] = h[j], h[i]
	n.state[h[i]].pos = i
	n.state[h[j]].pos = j
}

func (n *Net) heapPush(i int32) {
	n.state[i].pos = int32(len(n.heap))
	n.heap = append(n.heap, i)
	n.heapUp(n.state[i].pos)
}

func (n *Net) heapUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !n.heapLess(n.heap[i], n.heap[parent]) {
			break
		}
		n.heapSwap(i, parent)
		i = parent
	}
}

func (n *Net) heapDown(i int32) {
	size := int32(len(n.heap))
	for {
		l := 2*i + 1
		if l >= size {
			return
		}
		min := l
		if r := l + 1; r < size && n.heapLess(n.heap[r], n.heap[l]) {
			min = r
		}
		if !n.heapLess(n.heap[min], n.heap[i]) {
			return
		}
		n.heapSwap(i, min)
		i = min
	}
}

func (n *Net) heapFix(pos int32) {
	n.heapUp(pos)
	n.heapDown(pos)
}

func (n *Net) heapRemove(pos int32) {
	last := int32(len(n.heap)) - 1
	idx := n.heap[pos]
	if pos != last {
		n.heapSwap(pos, last)
	}
	n.heap = n.heap[:last]
	n.state[idx].pos = -1
	if pos < last {
		n.heapFix(pos)
	}
}

// Quiescent reports whether no transition can currently fire.
func (n *Net) Quiescent() bool {
	_, ok := n.NextEvent()
	return !ok
}

// TokenCount returns the total number of tokens in the net.
func (n *Net) TokenCount() int {
	total := 0
	for _, p := range n.places {
		total += p.Len()
	}
	return total
}

// Validate performs structural checks — every transition must have at
// least one input arc, all arcs must reference places registered in this
// net, and names must be unique — then seals the net for the incremental
// scheduler.
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
	n.Seal()
	return nil
}
