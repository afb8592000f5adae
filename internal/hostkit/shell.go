package hostkit

import (
	"fmt"
	"slices"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/mem"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

// Budget is a per-run watchdog. MaxSteps caps the engine's budget unit
// (NEX scheduler epochs, exact-host event-queue steps), MaxWall caps
// host wall-clock time. Zero fields are unlimited.
type Budget struct {
	MaxSteps int64
	MaxWall  time.Duration
}

// Shell is the part of a host engine that does not depend on how it
// schedules: the device complex, the thread table, the interrupt path
// and the budget watchdog. nex.Engine and exacthost.Engine embed it and
// add their scheduler. All methods run on the engine goroutine.
type Shell struct {
	Dev     *Complex
	Threads []*coro.Thread // every thread created, in creation order; a thread's ID is its index
	Live    int            // threads that have not exited

	env    EnvConfig
	states []*ThreadState // each thread's record, indexed like Threads
	trace  *trace.Recorder

	// The interrupt path: the interrupts devices raised that await
	// Deliver, in raise order, and the count delivered.
	raised []raisedIRQ
	irqs   int64

	budget    Budget
	ticks     int64 // OverBudget calls under a wall budget
	wallStart time.Time
	exceeded  bool
}

// raisedIRQ is one interrupt a device raised at at, not yet delivered.
type raisedIRQ struct {
	at vclock.Time
	b  *Binding
}

// Init sets the shell up over the engine's memory. onRaise, when set,
// runs after each interrupt a device raises: the engine's rule for
// delivering at once (exacthost calls Deliver there); an engine that
// passes nil delivers at its own boundaries. env is what every thread's
// Env shares.
func (k *Shell) Init(m *mem.Memory, onRaise func(), env EnvConfig, b Budget, tr *trace.Recorder) {
	k.Dev = NewComplex(m, func(at vclock.Time, b *Binding) {
		k.raised = append(k.raised, raisedIRQ{at, b})
		if onRaise != nil {
			onRaise()
		}
	})
	k.env, k.budget, k.trace = env, b, tr
}

// Mem returns the engine's simulated physical memory.
func (k *Shell) Mem() *mem.Memory { return k.Dev.mem }

// Attach registers a device binding; must precede the run.
func (k *Shell) Attach(b *Binding) { k.Dev.Attach(b) }

// HostFor returns the accel.Host through which the device bound by b
// reaches the engine.
func (k *Shell) HostFor(b *Binding) accel.Host { return k.Dev.HostFor(b) }

// Spawn creates a live thread running fn, named "name#id", with the
// engine's per-thread state from EnvConfig.New. The caller makes it
// runnable: the engine its main thread, Env.Spawn through the wake rule.
func (k *Shell) Spawn(name string, fn app.ThreadFunc) *coro.Thread {
	id := len(k.Threads)
	var th *coro.Thread
	var ts *ThreadState
	th = coro.NewThread(id, fmt.Sprintf("%s#%d", name, id), func() {
		fn(&env{k: k, th: th, w: ts})
	})
	th.Data, ts = k.env.New(th)
	k.Threads = append(k.Threads, th)
	k.states = append(k.states, ts)
	k.Live++
	return th
}

// Raised reports whether a raised interrupt awaits Deliver.
func (k *Shell) Raised() bool { return len(k.raised) > 0 }

// Deliver delivers every raised interrupt at boundary, or at its raise
// time if that is later: each wakes its device's longest-waiting thread
// through the engine's wake rule, or is latched for the device's next
// WaitIRQ. When an engine calls Deliver is its delivery rule.
func (k *Shell) Deliver(boundary vclock.Time) {
	for _, r := range k.raised {
		k.irqs++
		if len(r.b.waiters) == 0 {
			r.b.latched++
			continue
		}
		k.wake(r.b.waiters[0], max(boundary, r.at))
	}
	k.raised = k.raised[:0]
}

// IRQs returns the number of interrupts delivered, latched ones
// included.
func (k *Shell) IRQs() int64 { return k.irqs }

// wake makes th, a parked thread, runnable from at through the engine's
// wake rule, and takes it off the wait list of the device it waited on
// in WaitIRQ, if any.
func (k *Shell) wake(th *coro.Thread, at vclock.Time) {
	ts := k.states[th.ID]
	if b := ts.irq; b != nil {
		i := slices.Index(b.waiters, th)
		b.waiters = slices.Delete(b.waiters, i, i+1)
		ts.irq = nil
	}
	ts.parked = false
	k.env.Wake(th, at)
}

// StartWatchdog anchors the wall budget at run (or resume) start.
func (k *Shell) StartWatchdog() {
	if k.budget.MaxWall > 0 {
		k.wallStart = time.Now() //simlint:allow nondet-time watchdog wall budget, never simulation state
	}
}

// OverBudget reports whether the run has spent its budget, latching
// BudgetExceeded when it has. steps, the budget units the engine has
// taken so far, is checked exactly; the wall clock is read once every
// 64 calls, keeping the engine loop syscall-free.
func (k *Shell) OverBudget(steps int64) bool {
	if k.budget.MaxSteps > 0 && steps >= k.budget.MaxSteps {
		k.exceeded = true
	} else if k.budget.MaxWall > 0 {
		k.ticks++
		k.exceeded = k.ticks&63 == 0 && time.Since(k.wallStart) > k.budget.MaxWall //simlint:allow nondet-time watchdog wall budget, never simulation state
	}
	return k.exceeded
}

// BudgetExceeded reports whether the last run aborted on its budget. An
// exceeded engine holds live parked thread goroutines until Reap.
func (k *Shell) BudgetExceeded() bool { return k.exceeded }

// Reap force-terminates every live thread goroutine of an abandoned run
// (see coro.Kill). The engine must not be used afterwards.
func (k *Shell) Reap() {
	for _, th := range k.Threads {
		th.Kill()
	}
	k.Live = 0
}

// TraceSpan records one span on a traced run. The nil test comes before
// the Span is built: an untraced run otherwise pays for constructing the
// value at every compute chunk only for Add to drop it.
func (k *Shell) TraceSpan(comp string, kind trace.Kind, a, b vclock.Time) {
	if k.trace != nil {
		k.addSpan(comp, kind, a, b)
	}
}

// addSpan is kept out of line so that TraceSpan — the guard — stays
// inside the inliner's budget at the engines' call sites.
//
//go:noinline
func (k *Shell) addSpan(comp string, kind trace.Kind, a, b vclock.Time) {
	k.trace.Add(trace.Span{Component: comp, Kind: kind, Start: a, End: b})
}
