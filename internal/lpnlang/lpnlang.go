// Package lpnlang is a builder DSL for assembling Latency Petri Nets
// module by module, mirroring how the paper's lpnlang Python package is
// used to prototype accelerator performance models (§4.1): an LPN is
// written stage by stage, following the accelerator's dataflow, much like
// RTL is assembled module by module.
//
// The central convenience over raw package lpn is the Stage abstraction:
// a processing unit with k parallel servers (k server tokens on a
// self-loop) and a delay that may depend on the token being processed.
// Credit loops model end-to-end flow control.
package lpnlang

import (
	"fmt"

	"nexsim/internal/lpn"
	"nexsim/internal/vclock"
)

// Builder accumulates places and transitions for one accelerator model.
type Builder struct {
	net  *lpn.Net
	clk  vclock.Hz
	errs []error
}

// NewBuilder starts a model named name whose cycle delays are interpreted
// at clock frequency clk.
func NewBuilder(name string, clk vclock.Hz) *Builder {
	return &Builder{net: lpn.New(name), clk: clk}
}

// Queue declares a FIFO place with the given capacity (0 = unbounded).
func (b *Builder) Queue(name string, capacity int) *lpn.Place {
	return b.net.AddPlace(name, capacity)
}

// StageOpt configures a Stage.
type StageOpt func(*stageCfg)

type stageCfg struct {
	servers  int
	delay    lpn.DelayFunc
	effect   lpn.EffectFunc
	outFn    lpn.OutFunc
	extraIn  []lpn.Arc
	extraOut []lpn.OutArc
}

// Servers sets the number of parallel processing units in the stage
// (default 1). A stage with k servers can have k items in flight.
func Servers(k int) StageOpt { return func(c *stageCfg) { c.servers = k } }

// Effect attaches a side effect (e.g. a DMA emission) to each firing.
func Effect(e lpn.EffectFunc) StageOpt { return func(c *stageCfg) { c.effect = e } }

// OutTokens overrides the tokens deposited on the stage's output place.
func OutTokens(fn lpn.OutFunc) StageOpt { return func(c *stageCfg) { c.outFn = fn } }

// AlsoConsume adds an extra input arc (e.g. a credit or a DMA response).
func AlsoConsume(p *lpn.Place, weight int) StageOpt {
	return func(c *stageCfg) { c.extraIn = append(c.extraIn, lpn.Arc{Place: p, Weight: weight}) }
}

// AlsoConsumeBy adds an extra input arc whose weight per firing is
// attribute attr of the token the stage takes from its input place (a
// dependency taken only when the work item asks for it).
func AlsoConsumeBy(p *lpn.Place, attr int) StageOpt {
	return func(c *stageCfg) { c.extraIn = append(c.extraIn, lpn.Arc{Place: p, By: attr + 1}) }
}

// AlsoProduce adds an extra output arc (e.g. returning a credit).
func AlsoProduce(p *lpn.Place, fn lpn.OutFunc) StageOpt {
	return func(c *stageCfg) { c.extraOut = append(c.extraOut, lpn.OutArc{Place: p, Fn: fn}) }
}

// AlsoRelease adds an extra output arc depositing one attribute-free
// token at the firing's completion time — the credit-return shape of
// AlsoProduce(p, ReturnCredit), but allocation-free on the firing path.
func AlsoRelease(p *lpn.Place) StageOpt {
	return func(c *stageCfg) { c.extraOut = append(c.extraOut, lpn.OutArc{Place: p, Plain: true}) }
}

// Cycles returns a delay of n clock cycles at the builder's frequency.
func (b *Builder) Cycles(n int64) lpn.DelayFunc { return lpn.PerCycle(b.clk, n) }

// CyclesAttr returns a delay computed from the first consumed token:
// base + perUnit * attrs[attr] cycles.
func (b *Builder) CyclesAttr(base, perUnit int64, attr int) lpn.DelayFunc {
	clk := b.clk
	return func(f *lpn.Firing) vclock.Duration {
		return clk.CyclesDur(base + perUnit*f.Tok(0).Attrs[attr])
	}
}

// CyclesFunc returns a delay of fn(firing) cycles.
func (b *Builder) CyclesFunc(fn func(f *lpn.Firing) int64) lpn.DelayFunc {
	clk := b.clk
	return func(f *lpn.Firing) vclock.Duration { return clk.CyclesDur(fn(f)) }
}

// Stage adds a processing stage reading from `from` and writing to `to`
// (either may be shared with other stages). delay may be nil for a
// zero-delay stage. It returns the underlying transition.
func (b *Builder) Stage(name string, from, to *lpn.Place, delay lpn.DelayFunc, opts ...StageOpt) *lpn.Transition {
	cfg := stageCfg{servers: 1, delay: delay}
	for _, o := range opts {
		o(&cfg)
	}
	if from == nil {
		b.errs = append(b.errs, fmt.Errorf("stage %s: nil input place", name))
		return nil
	}
	in := []lpn.Arc{{Place: from}}
	var out []lpn.OutArc
	if to != nil {
		out = append(out, lpn.OutArc{Place: to, Fn: cfg.outFn})
	}
	if cfg.servers > 0 {
		srv := b.net.AddPlace(name+".srv", 0)
		for i := 0; i < cfg.servers; i++ {
			srv.Push(lpn.Tok(0))
		}
		in = append(in, lpn.Arc{Place: srv})
		out = append(out, lpn.OutArc{Place: srv, Plain: true})
	}
	in = append(in, cfg.extraIn...)
	out = append(out, cfg.extraOut...)
	return b.net.AddTransition(&lpn.Transition{
		Name:   name,
		In:     in,
		Out:    out,
		Delay:  cfg.delay,
		Effect: cfg.effect,
	})
}

// Credits declares a credit pool with n initial credits. Stages that
// consume a credit (AlsoConsume) stall when the pool is empty; a
// downstream stage returns credits with ReturnCredit.
func (b *Builder) Credits(name string, n int) *lpn.Place {
	p := b.net.AddPlace(name, 0)
	for i := 0; i < n; i++ {
		p.Push(lpn.Tok(0))
	}
	return p
}

// ReturnCredit is an OutFunc depositing one credit available immediately
// at the firing's completion time.
func ReturnCredit(f *lpn.Firing, done vclock.Time) []lpn.Token {
	return []lpn.Token{lpn.Tok(done)}
}

// Build validates the net's structure (lpn.Validate) and returns it
// ready to simulate.
func (b *Builder) Build() (*lpn.Net, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.net.Validate(); err != nil {
		return nil, err
	}
	return b.net, nil
}

// MustBuild is Build, panicking on error; accelerator models use it at
// construction time since their structure is static.
func (b *Builder) MustBuild() *lpn.Net {
	n, err := b.Build()
	if err != nil {
		panic("lpnlang: " + err.Error())
	}
	return n
}
