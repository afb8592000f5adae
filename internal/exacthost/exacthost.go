// Package exacthost implements an exact-time host engine: every thread
// event, interaction and interrupt is resolved at its precise virtual
// time, with a CFS-like scheduler when threads oversubscribe cores.
//
// It plays two roles in the evaluation:
//
//   - With the native compute model it is the *reference system* — the
//     stand-in for the paper's bare-metal / FPGA-testbed ground truth
//     that NEX's simulated time is compared against (Table 3).
//   - With the cycle-level CPU model from package cpu it is the
//     *gem5-style host*: same exact-time semantics, but compute segments
//     are simulated instruction by instruction, which is slow and whose
//     timing model deviates from native the way gem5's does (§6.5).
package exacthost

import (
	"fmt"

	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/eventq"
	"nexsim/internal/hostkit"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

// ComputeModel turns a Work descriptor into a modeled duration. The
// native model is a closed-form conversion; the gem5-style model
// simulates the instruction stream and burns host CPU doing so.
type ComputeModel interface {
	Duration(w isa.Work) vclock.Duration
}

// NativeModel models compute segments at their native duration.
type NativeModel struct {
	Clock vclock.Hz
}

// Duration implements ComputeModel.
func (m NativeModel) Duration(w isa.Work) vclock.Duration {
	return w.NativeDuration(m.Clock)
}

// cfsSlice is the CFS scheduling slice when cores are oversubscribed.
const cfsSlice = 3 * vclock.Millisecond

// Config parameterizes the engine.
type Config struct {
	Clock   vclock.Hz       // host core frequency
	Cores   int             // physical cores available to application threads
	Compute ComputeModel    // nil = NativeModel{Clock}
	Memory  *mem.Memory     // nil = fresh memory
	Trace   *trace.Recorder // optional
	// Budget aborts the run after MaxSteps event-queue steps — the exact
	// engine's closest analogue of NEX's epochs — or MaxWall of host
	// wall-clock time (zero fields = unlimited). An aborted engine sets
	// BudgetExceeded; the caller must Reap it.
	Budget hostkit.Budget
}

// Engine is an exact-time host simulator instance.
type Engine struct {
	hostkit.Shell
	cfg   Config
	evq   eventq.Queue
	steps int64 // event-queue steps taken (the budget unit)

	// CFS state.
	runq    []*tstate // runnable, waiting for a core, sorted by vruntime
	running int       // threads currently holding cores
	minvr   vclock.Duration
}

// tstate is engine-private per-thread state.
type tstate struct {
	th        *coro.Thread
	vruntime  vclock.Duration
	remaining vclock.Duration // unfinished compute (sliced out)
	hostkit.ThreadState
}

func st(t *coro.Thread) *tstate { return t.Data.(*tstate) }

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Clock == 0 {
		cfg.Clock = 3 * vclock.GHz
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.Compute == nil {
		cfg.Compute = NativeModel{Clock: cfg.Clock}
	}
	if cfg.Memory == nil {
		cfg.Memory = mem.New(0x1000_0000)
	}
	e := &Engine{cfg: cfg}
	// Exact time delivers a raised interrupt at once: at its raise time,
	// or now if that already passed.
	e.Init(cfg.Memory, func() { e.Deliver(e.evq.Now()) }, hostkit.EnvConfig{
		Clock: cfg.Clock,
		Now:   func(*coro.Thread) vclock.Time { return e.evq.Now() },
		New: func(th *coro.Thread) (any, *hostkit.ThreadState) {
			s := &tstate{th: th}
			return s, &s.ThreadState
		},
		// Exact time: a woken or new thread contends for a core at once.
		Wake: e.wakeAt,
	}, cfg.Budget, cfg.Trace)
	return e
}

// Run executes the program to completion (or until its budget is
// exceeded — check BudgetExceeded and Reap on abort) and returns the
// simulated time.
func (e *Engine) Run(prog app.Program) vclock.Duration {
	e.wakeAt(e.Spawn("main", prog.Main), 0)
	e.StartWatchdog()
	e.loop()
	return e.evq.Now().Sub(0)
}

// Now returns current virtual time.
func (e *Engine) Now() vclock.Time { return e.evq.Now() }

// wakeAt schedules th to contend for a core at time at.
func (e *Engine) wakeAt(th *coro.Thread, at vclock.Time) {
	e.evq.At(at, func(now vclock.Time) { e.dispatch(th, now) })
}

// dispatch gives th a core if one is free, otherwise queues it by
// vruntime. Called when a thread becomes runnable.
func (e *Engine) dispatch(th *coro.Thread, now vclock.Time) {
	s := st(th)
	// CFS-style wakeup placement: align vruntime with the current
	// minimum so long sleepers do not monopolize cores on wake.
	if s.vruntime < e.minvr {
		s.vruntime = e.minvr
	}
	if e.running < e.cfg.Cores {
		e.running++
		e.grantCore(th, now)
		return
	}
	e.enqueue(s)
}

func (e *Engine) enqueue(s *tstate) {
	i := len(e.runq)
	for j, o := range e.runq {
		if o.vruntime > s.vruntime {
			i = j
			break
		}
	}
	e.runq = append(e.runq, nil)
	copy(e.runq[i+1:], e.runq[i:])
	e.runq[i] = s
}

// grantCore is called when th holds a core: continue a sliced-out
// compute segment, or resume the coroutine.
func (e *Engine) grantCore(th *coro.Thread, now vclock.Time) {
	s := st(th)
	if s.vruntime > e.minvr {
		e.minvr = s.vruntime
	}
	if s.remaining > 0 {
		rem := s.remaining
		s.remaining = 0
		e.continueCompute(th, now, rem)
		return
	}
	e.runThread(th, now)
}

// grantNext hands a freed core to the lowest-vruntime waiter.
func (e *Engine) grantNext(now vclock.Time) {
	if e.running < e.cfg.Cores && len(e.runq) > 0 {
		next := e.runq[0]
		e.runq = e.runq[1:]
		e.running++
		e.grantCore(next.th, now)
	}
}

// releaseCore frees the current thread's core and reassigns it.
func (e *Engine) releaseCore(now vclock.Time) {
	e.running--
	e.grantNext(now)
}

// continueCompute runs (part of) a compute segment on the held core.
func (e *Engine) continueCompute(th *coro.Thread, now vclock.Time, d vclock.Duration) {
	chunk := d
	if len(e.runq) > 0 && chunk > cfsSlice {
		chunk = cfsSlice
	}
	end := now.Add(chunk)
	s := st(th)
	s.vruntime += chunk
	e.TraceSpan(th.Name, trace.Compute, now, end)
	rem := d - chunk
	e.evq.At(end, func(tn vclock.Time) {
		if rem == 0 && len(e.runq) == 0 {
			e.runThread(th, tn) // keep the core
			return
		}
		// Yield the core: requeue ourselves (with any remainder) and let
		// the fairest waiter run.
		s.remaining = rem
		e.running--
		if e.running < e.cfg.Cores && len(e.runq) == 0 {
			e.running++
			e.grantCore(th, tn)
			return
		}
		e.enqueue(s)
		e.grantNext(tn)
	})
}

// runThread resumes th repeatedly until it blocks, yields its core, or
// exits. The caller guarantees th holds a core.
func (e *Engine) runThread(th *coro.Thread, now vclock.Time) {
	for {
		r := th.Resume()
		s := st(th)
		switch r.Op {
		case coro.OpExit:
			e.Live--
			e.releaseCore(now)
			return

		case coro.OpAdvance:
			d := e.computeDuration(s, r.Work)
			if d == 0 {
				continue
			}
			e.continueCompute(th, now, d)
			return

		case coro.OpInteract:
			cost := r.Interact(now)
			if cost > 0 {
				// The thread stalls on the interaction, holding its core
				// (an MMIO read stalls the CPU).
				end := now.Add(cost)
				e.TraceSpan(th.Name, trace.MMIO, now, end)
				s.vruntime += cost
				e.evq.At(end, func(tn vclock.Time) { e.runThread(th, tn) })
				return
			}
			continue

		case coro.OpPark:
			e.releaseCore(now)
			return

		case coro.OpSleep:
			e.TraceSpan(th.Name, trace.Blocked, now, now.Add(r.Dur))
			e.releaseCore(now)
			e.wakeAt(th, now.Add(r.Dur))
			return

		case coro.OpSlipExit:
			// Exact time has no epoch to end at a SlipStream exit.
			continue

		default:
			panic(fmt.Sprintf("exacthost: unknown op %v", r.Op))
		}
	}
}

func (e *Engine) computeDuration(s *tstate, w isa.Work) vclock.Duration {
	if s.JumpT > 0 {
		return 0 // JumpT: outside virtual time
	}
	var d vclock.Duration
	if s.Slip > 0 {
		// SlipStream: fast-forward the segment without detailed
		// simulation, the way gem5 users checkpoint past setup phases
		// with the KVM CPU (§8) — native-time accounting only.
		d = w.NativeDuration(e.cfg.Clock)
	} else {
		d = e.cfg.Compute.Duration(w)
	}
	return s.Scale(d)
}

// loop is the main event loop. Devices that may raise interrupts are
// interleaved with thread events in exact time order: their Advance can
// insert thread wakeups. Polling devices are caught up lazily — to the
// next thread event before it runs, the earliest time the host could
// observe them — so their internal events never pass through this loop.
func (e *Engine) loop() {
	for e.Live > 0 {
		if e.OverBudget(e.steps) {
			return
		}
		e.steps++
		tNext, okT := e.evq.NextTime()
		dNext, okD := e.Dev.NextInlineEvent()
		if okD && (!okT || dNext < tNext) {
			e.Dev.Advance(dNext)
			continue
		}
		if okT {
			e.Dev.Advance(tNext)
			e.evq.Step()
			continue
		}
		// No thread events, no interrupt-capable device events: only a
		// polling device can still act. Advance through its next event,
		// or the run is deadlocked.
		dNext, okD = e.Dev.NextEvent()
		if !okD {
			panic("exacthost: deadlock — live threads but no pending events or device activity")
		}
		e.Dev.Advance(dNext)
	}
}
