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
	"time"

	"nexsim/internal/accel"
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

// Config parameterizes the engine.
type Config struct {
	Name    string
	Clock   vclock.Hz       // host core frequency
	Cores   int             // physical cores available to application threads
	Compute ComputeModel    // nil = NativeModel{Clock}
	Memory  *mem.Memory     // nil = fresh memory
	Trace   *trace.Recorder // optional
	// TaskAccessCost is the virtual cost of one task-buffer access
	// (uncached shared memory); default 90ns.
	TaskAccessCost vclock.Duration
	// Slice is the CFS scheduling slice when cores are oversubscribed;
	// default 3ms.
	Slice vclock.Duration
	// MaxSteps aborts the run after this many event-queue steps — the
	// exact engine's closest analogue of NEX's epoch budget (0 =
	// unlimited). MaxWall aborts after this much host wall-clock time
	// (0 = unlimited). An aborted engine sets BudgetExceeded; the
	// caller must Reap it.
	MaxSteps int64
	MaxWall  time.Duration
	// Intra >= 2 runs devices on up to Intra-1 stepper goroutines under
	// conservative lookahead (DESIGN.md §10); results stay byte-identical
	// to serial. Ignored (serial) when MaxSteps > 0: the serial loop
	// counts device-advance iterations against the step budget, and the
	// parallel loop must abort at the identical point.
	Intra int
}

// Engine is an exact-time host simulator instance.
type Engine struct {
	cfg     Config
	mem     *mem.Memory
	evq     eventq.Queue
	env     hostkit.EnvConfig // shared by every thread's Env
	dev     *hostkit.Complex
	live    int
	irqWait map[int][]*coro.Thread // vector -> waiters
	irqPend map[int]int            // vector -> undelivered (sticky) interrupts
	nextTID int

	// CFS state.
	runq    []*tstate // runnable, waiting for a core, sorted by vruntime
	running int       // threads currently holding cores
	minvr   vclock.Duration

	// Watchdog budget state.
	threads   []*coro.Thread // every thread ever created (for Reap)
	steps     int64          // event-queue steps taken
	wallStart time.Time
	exceeded  bool

	// Statistics.
	Interactions int64
	IRQs         int64
}

// tstate is engine-private per-thread state.
type tstate struct {
	th        *coro.Thread
	vruntime  vclock.Duration
	pending   bool // pending unpark
	parked    bool
	remaining vclock.Duration // unfinished compute (sliced out)
	hostkit.Warp
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
	if cfg.TaskAccessCost == 0 {
		cfg.TaskAccessCost = 90 * vclock.Nanosecond
	}
	if cfg.Slice == 0 {
		cfg.Slice = 3 * vclock.Millisecond
	}
	e := &Engine{
		cfg:     cfg,
		mem:     cfg.Memory,
		irqWait: make(map[int][]*coro.Thread),
		irqPend: make(map[int]int),
	}
	e.dev = hostkit.NewComplex(cfg.Memory, e.RaiseIRQ)
	e.env = hostkit.EnvConfig{
		Clock: cfg.Clock, Devices: e.dev, TaskAccessCost: cfg.TaskAccessCost,
		Now: func(*coro.Thread) vclock.Time { return e.evq.Now() },
	}
	return e
}

// Mem returns the engine's simulated physical memory.
func (e *Engine) Mem() *mem.Memory { return e.mem }

// Attach registers a device binding. Must be called before Run.
func (e *Engine) Attach(b *hostkit.Binding) { e.dev.Attach(b) }

// HostFor returns the accel.Host through which a device bound by b
// reaches this engine's memory system.
func (e *Engine) HostFor(b *hostkit.Binding) accel.Host { return e.dev.HostFor(b) }

// Result summarizes a completed run.
type Result struct {
	SimTime vclock.Duration
	Threads int
}

// Run executes the program to completion (or until its budget is
// exceeded — check BudgetExceeded and Reap on abort) and returns the
// simulated time.
func (e *Engine) Run(prog app.Program) Result {
	if e.cfg.MaxSteps == 0 {
		defer e.dev.Stop()
		e.dev.Start(e.cfg.Intra)
	}
	main := e.newThread("main", prog.Main)
	e.wakeAt(main, 0)
	if e.cfg.MaxWall > 0 {
		e.wallStart = time.Now() //simlint:allow nondet-time watchdog wall budget, never simulation state
	}
	e.loop()
	return Result{SimTime: e.evq.Now().Sub(0), Threads: e.nextTID}
}

// IntraStats reports the stepper-lane count of the last Run (0 when it
// ran serially) and the cumulative wall time the steppers spent
// advancing devices.
func (e *Engine) IntraStats() (lanes int, deviceWall time.Duration) {
	return e.dev.IntraStats()
}

// overBudget reports whether the run blew its step or wall budget. The
// step bound is exact; the wall bound is amortized over 1024 steps.
func (e *Engine) overBudget() bool {
	e.steps++
	if e.cfg.MaxSteps > 0 && e.steps > e.cfg.MaxSteps {
		return true
	}
	if e.cfg.MaxWall > 0 && e.steps&1023 == 0 && time.Since(e.wallStart) > e.cfg.MaxWall { //simlint:allow nondet-time watchdog wall budget, never simulation state
		return true
	}
	return false
}

// BudgetExceeded reports whether the last Run aborted on its budget.
func (e *Engine) BudgetExceeded() bool { return e.exceeded }

// Reap force-terminates every live thread goroutine of an abandoned run
// (see coro.Kill). The engine must not be used afterwards.
func (e *Engine) Reap() {
	for _, th := range e.threads {
		th.Kill()
	}
	e.live = 0
}

// Now returns current virtual time.
func (e *Engine) Now() vclock.Time { return e.evq.Now() }

func (e *Engine) newThread(name string, fn app.ThreadFunc) *coro.Thread {
	id := e.nextTID
	e.nextTID++
	s := &tstate{}
	th := coro.NewThread(id, fmt.Sprintf("%s#%d", name, id), func() {
		fn(hostkit.NewEnv(&e.env, s.th, &s.Warp))
	})
	s.th = th
	th.Data = s
	e.threads = append(e.threads, th)
	e.live++
	return th
}

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
	if len(e.runq) > 0 && chunk > e.cfg.Slice {
		chunk = e.cfg.Slice
	}
	end := now.Add(chunk)
	s := st(th)
	s.vruntime += chunk
	e.traceSpan(th.Name, trace.Compute, now, end)
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
			e.live--
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
			e.Interactions++
			e.dev.Advance(now)
			cost := r.Interact(now)
			if cost > 0 {
				// The thread stalls on the interaction, holding its core
				// (an MMIO read stalls the CPU).
				end := now.Add(cost)
				e.traceSpan(th.Name, trace.MMIO, now, end)
				s.vruntime += cost
				e.evq.At(end, func(tn vclock.Time) { e.runThread(th, tn) })
				return
			}
			continue

		case coro.OpPark:
			if s.pending {
				s.pending = false
				continue
			}
			s.parked = true
			e.releaseCore(now)
			return

		case coro.OpUnpark:
			e.unpark(r.Target, now)
			continue

		case coro.OpSleep:
			e.traceSpan(th.Name, trace.Blocked, now, now.Add(r.Dur))
			e.releaseCore(now)
			e.wakeAt(th, now.Add(r.Dur))
			return

		case coro.OpSpawn:
			body, ok := r.Body.(app.ThreadFunc)
			if !ok {
				panic("exacthost: spawn body is not an app.ThreadFunc")
			}
			nt := e.newThread(r.Name, body)
			th.Spawned = nt
			e.wakeAt(nt, now)
			continue

		case coro.OpWaitIRQ:
			if e.irqPend[r.Vector] > 0 {
				// A previously raised interrupt is still pending: consume
				// it without blocking (avoids the lost-wakeup race
				// between a status check and the wait).
				e.irqPend[r.Vector]--
				continue
			}
			s.parked = true
			e.irqWait[r.Vector] = append(e.irqWait[r.Vector], th)
			e.releaseCore(now)
			return

		case coro.OpWarp:
			s.Handle(r)
			continue

		case coro.OpTick:
			// Exact engine: tick points are ordinary interaction points
			// with no extra cost.
			e.dev.Advance(now)
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
	if s.Slip {
		// SlipStream: fast-forward the segment without detailed
		// simulation, the way gem5 users checkpoint past setup phases
		// with the KVM CPU (§8) — native-time accounting only.
		d = w.NativeDuration(e.cfg.Clock)
	} else {
		d = e.cfg.Compute.Duration(w)
	}
	return s.Scale(d)
}

func (e *Engine) unpark(target *coro.Thread, now vclock.Time) {
	s := st(target)
	if !s.parked {
		s.pending = true
		return
	}
	s.parked = false
	e.wakeAt(target, now)
}

// RaiseIRQ delivers a device interrupt: exact engines deliver at the
// raise time (or now, if the raise time already passed).
func (e *Engine) RaiseIRQ(at vclock.Time, vector int) {
	e.IRQs++
	waiters := e.irqWait[vector]
	if len(waiters) == 0 {
		e.irqPend[vector]++ // latch until someone waits
		return
	}
	e.irqWait[vector] = waiters[1:]
	th := waiters[0]
	st(th).parked = false
	wake := at
	if now := e.evq.Now(); wake < now {
		wake = now
	}
	e.wakeAt(th, wake)
}

// loop is the main event loop: interleave thread events with device
// activity in exact time order.
func (e *Engine) loop() {
	for e.live > 0 {
		if e.overBudget() {
			e.exceeded = true
			return
		}
		tNext, okT := e.evq.NextTime()
		if !e.dev.Parallel() {
			dNext, okD := e.dev.NextEvent()
			if okD && (!okT || dNext < tNext) {
				e.dev.Advance(dNext)
				continue
			}
			if !okT {
				panic("exacthost: deadlock — live threads but no pending events or device activity")
			}
			e.evq.Step()
			continue
		}
		// Parallel: IRQ-capable devices keep the exact serial
		// interleave (their Advance can insert thread wakeups); the
		// rest run ahead on their stepper lanes, bounded by the next
		// thread event — the earliest time the host could observe them.
		dNext, okD := e.dev.NextInlineEvent()
		if okD && (!okT || dNext < tNext) {
			e.dev.Advance(dNext)
			continue
		}
		if okT {
			e.dev.Advance(tNext)
			e.evq.Step()
			continue
		}
		// No thread events, no inline device events: whatever remains
		// lives on the stepper lanes. Quiesce and re-check serially —
		// either a lane still has internal events (advance through
		// them) or the run is genuinely deadlocked, exactly as serial.
		dNext, okD = e.dev.NextEvent()
		if !okD {
			panic("exacthost: deadlock — live threads but no pending events or device activity")
		}
		e.dev.Advance(dNext)
	}
}

func (e *Engine) traceSpan(comp string, k trace.Kind, a, b vclock.Time) {
	e.cfg.Trace.Add(trace.Span{Component: comp, Kind: k, Start: a, End: b})
}
