// Package faults is the deterministic fault-injection layer: typed
// injection sites (Site) threaded through the simulation stack
// (simbricks channel send/recv, NEX device dispatch, sweep pool
// workers) fire scheduled or seeded-probabilistic faults that reproduce
// byte-identically run to run. A site is a Site constant, so an engine
// cannot cross a site that does not exist; the spec names sites by
// their wire spelling, which ParseSite checks.
//
// Determinism is the whole point. A fault schedule is part of the
// experiment spec (experiments.Spec.Faults), so a failing run is a
// *spec*: re-submitting it re-fires the same fault at the same hit of
// the same site, which is what makes chaos findings debuggable and lets
// the fault-matrix test assert exact outcomes. The package is
// simlint-clean — no wall clock, no global math/rand; probabilistic
// firing draws from xrand streams derived from the run's seed and the
// caller's attempt number.
//
// An Injector is created per run attempt. Engines and the sweep pool call
// Hit(site) at each site crossing; a nil Injector (the default
// everywhere) makes every crossing a no-op, so fault-free runs execute
// the exact instruction path they always did.
package faults

import (
	"errors"
	"fmt"
	"sync"

	"nexsim/internal/xrand"
)

// Site is one injection site: a chokepoint in the stack. The DESIGN.md
// fault-model section documents where each is checked.
type Site uint8

// The sites, in name order.
const (
	// SiteChanRecv / SiteChanSend: simbricks channel message decode and
	// encode — the co-simulation transport (a lost or delayed message).
	SiteChanRecv Site = iota
	SiteChanSend
	// SiteDeviceDispatch: a NEX device-bound trap (a trapping MMIO or
	// task-buffer interaction) — the accelerator dispatch path.
	SiteDeviceDispatch
	// SitePoolWorker: the sweep-pool worker picking up a run — a sick
	// worker (stall or crash) at job start.
	SitePoolWorker
	numSites
)

// siteNames is the wire spelling of each site (experiments.FaultSpec,
// /metrics labels), sorted like the constants.
var siteNames = [numSites]string{
	SiteChanRecv:       "chan.recv",
	SiteChanSend:       "chan.send",
	SiteDeviceDispatch: "device.dispatch",
	SitePoolWorker:     "pool.worker",
}

func (s Site) String() string { return siteNames[s] }

// Sites returns every injection site, sorted by name.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// ParseSite maps the spec's wire spelling onto a Site.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown site %q (want one of %v)", name, Sites())
}

// Op is what a firing fault does at its site.
type Op int

const (
	// OpFail aborts the operation: engine sites panic with the *Injected
	// (recovered into an error at the run boundary), the pool-worker site
	// fails the run before it starts.
	OpFail Op = iota
	// OpDelay lets the operation proceed late: virtual-time sites shift
	// time forward by Delay picoseconds, the pool-worker site stalls the
	// worker briefly.
	OpDelay
)

func (o Op) String() string {
	if o == OpDelay {
		return "delay"
	}
	return "fail"
}

// ParseOp maps the spec's wire spelling onto an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "fail":
		return OpFail, nil
	case "delay":
		return OpDelay, nil
	default:
		return 0, fmt.Errorf("faults: unknown op %q (want fail or delay)", s)
	}
}

// Fault is one scheduled (or probabilistic) fault in a run's plan.
type Fault struct {
	Site Site
	Op   Op
	// Hit fires the fault on the nth crossing of Site (1-based). 0 with
	// Rate 0 means the first crossing; 0 with Rate > 0 means every
	// crossing is a candidate.
	Hit int64
	// Attempts arms the fault only while the caller's attempt number is
	// below it (so a retry beyond Attempts succeeds deterministically —
	// the self-healing path's test hook). 0 arms it on every attempt.
	Attempts int
	// Rate fires the fault probabilistically on each crossing, drawn
	// from a stream seeded by (seed, attempt, plan index) — reproducible
	// chaos. 0 means scheduled-only (Hit).
	Rate float64
	// Delay is the virtual delay in picoseconds for OpDelay (host-side
	// sites convert it to a bounded wall stall).
	Delay int64
}

// ErrInjected marks every injected failure; errors.Is(err, ErrInjected)
// classifies a failure as transient (retryable) rather than
// deterministic.
var ErrInjected = errors.New("injected fault")

// Injected is the error (and panic value, at engine sites) a firing
// OpFail fault produces.
type Injected struct {
	Site    Site
	Op      Op
	HitN    int64 // which crossing of the site fired (1-based)
	Attempt int
	Delay   int64 // picoseconds, OpDelay only
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("faults: %s %s at hit %d (attempt %d)", e.Op, e.Site, e.HitN, e.Attempt)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *Injected) Unwrap() error { return ErrInjected }

// IsInjected reports whether v (an error or a recovered panic value) is
// an injected fault.
func IsInjected(v any) bool {
	err, ok := v.(error)
	return ok && errors.Is(err, ErrInjected)
}

// Injector evaluates a run attempt's fault plan at each site crossing.
// Methods are safe on a nil receiver (every call is a cheap no-op), so
// call sites never branch on configuration. An Injector is also safe
// for concurrent use — sites may be crossed from pool workers.
type Injector struct {
	attempt int

	mu     sync.Mutex
	counts [numSites]int64
	bySite [numSites][]plannedFault
}

type plannedFault struct {
	f   Fault
	rng *xrand.Stream // per-fault stream for Rate draws
}

// NewInjector builds the injector for one run attempt. seed should
// derive from the spec (same spec, same schedule); attempt distinguishes
// retries so Attempts-windowed faults can expire and Rate draws differ
// across attempts. A nil or empty plan returns nil — the no-op injector.
func NewInjector(seed uint64, attempt int, plan []Fault) *Injector {
	if len(plan) == 0 {
		return nil
	}
	root := xrand.New(seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	in := &Injector{attempt: attempt}
	for i, f := range plan {
		in.bySite[f.Site] = append(in.bySite[f.Site],
			plannedFault{f: f, rng: root.Derive(fmt.Sprintf("fault-%d-%s", i, f.Site))})
	}
	return in
}

// Hit records one crossing of site and returns the fault that fires
// there, or nil. Exactly one fault fires per crossing (plan order wins
// ties). The per-site hit counter advances on every crossing, fired or
// not, so schedules stay stable as faults are added.
func (in *Injector) Hit(site Site) *Injected {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[site]++
	n := in.counts[site]
	for i := range in.bySite[site] {
		pf := &in.bySite[site][i]
		if pf.f.Attempts > 0 && in.attempt >= pf.f.Attempts {
			continue
		}
		fire := false
		switch {
		case pf.f.Rate > 0:
			fire = pf.rng.Float64() < pf.f.Rate
		case pf.f.Hit == 0:
			fire = n == 1
		default:
			fire = n == pf.f.Hit
		}
		if !fire {
			continue
		}
		recordFired(site)
		return &Injected{Site: site, Op: pf.f.Op, HitN: n, Attempt: in.attempt, Delay: pf.f.Delay}
	}
	return nil
}

// Process-global observability counters: how many faults actually fired,
// by site. The fault-matrix test and /metrics read these; they are
// monotonic, so readers must diff.
var (
	firedMu     sync.Mutex
	firedBySite [numSites]int64
)

func recordFired(site Site) {
	firedMu.Lock()
	firedBySite[site]++
	firedMu.Unlock()
}

// FiredTotal reports how many faults have fired process-wide.
func FiredTotal() int64 {
	firedMu.Lock()
	defer firedMu.Unlock()
	var t int64
	for _, n := range firedBySite {
		t += n
	}
	return t
}

// FiredBySite returns the names and counts of the sites that have
// fired, sorted by name (deterministic rendering).
func FiredBySite() (sites []string, counts []int64) {
	firedMu.Lock()
	defer firedMu.Unlock()
	for s, n := range firedBySite {
		if n > 0 {
			sites = append(sites, Site(s).String())
			counts = append(counts, n)
		}
	}
	return sites, counts
}
