package nex

import (
	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/faults"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

// loop drives the simulation epoch by epoch until all threads exit or —
// when a checkpoint halt is armed — until the prefix boundary freezes
// the engine mid-epoch (e.frame set; see snapshot.go).
func (e *Engine) loop() {
	for e.live > 0 {
		if e.overBudget() {
			// Structured abort: within one epoch of the bound (the epoch
			// check is exact), leaving threads parked for Reap.
			e.exceeded = true
			return
		}
		minWake := e.minWake()

		if minWake == vclock.Never {
			// Everyone is parked; progress can only come from an
			// undelivered interrupt or future device activity. (Device
			// activity before a thread wake needs no handling in the
			// normal path: hybrid/eager deliver it via the periodic
			// synchronization below, and lazy defers it by definition.)
			if len(e.pending) > 0 {
				e.deliverIRQs(e.roundUp(e.now))
				continue
			}
			devNext, okD := e.dev.NextEvent()
			if !okD {
				panic("nex: deadlock — live threads, no wakes, idle devices")
			}
			e.dev.Advance(devNext)
			e.deliverIRQs(e.roundUp(devNext))
			continue
		}

		start := e.now
		if minWake > start {
			// Idle gap: no thread can run before minWake. Jump there
			// without charging per-epoch cost (the real NEX cores would
			// be parked in the scheduler's idle path).
			if minWake.Sub(start) >= e.cfg.Epoch {
				e.Stats.IdleJumps++
			}
			start = minWake
			// Hybrid synchronization still happens across the gap; a
			// single catch-up at the gap's end is equivalent for device
			// state and cheaper, but interrupts must be delivered at
			// their interval boundaries inside the gap.
			if e.cfg.Mode == Hybrid {
				for e.nextSync < start {
					e.dev.Advance(e.nextSync)
					e.Stats.Syncs++
					e.deliverIRQs(e.nextSync)
					e.nextSync += vclock.Time(e.cfg.SyncInterval)
				}
			}
		}
		e.now = start

		// One epoch of EBS execution.
		runnable := e.runnableAt(start)
		if len(runnable) == 0 {
			// A wake exists at minWake==start but the thread got
			// re-parked by IRQ delivery ordering; retry loop.
			continue
		}
		selected := runnable
		if len(runnable) > e.cfg.VirtualCores {
			selected = e.cfg.Policy.Select(e.epochIdx, runnable, e.cfg.VirtualCores)
			if len(selected) > e.cfg.VirtualCores {
				selected = selected[:e.cfg.VirtualCores]
			}
		}
		end := start.Add(e.epochLen(selected))

		for i, th := range selected {
			if e.runThreadEpoch(th, start, end) {
				// Prefix halt: the request e.frame.req was yielded but not
				// processed. Freeze the slot-loop position; ResumeRun picks
				// the epoch back up from here (possibly in another engine,
				// after Restore). selected aliases scratch, so copy it.
				e.frame.selected = append([]*coro.Thread(nil), selected...)
				e.frame.idx = i
				e.frame.start = start
				e.frame.end = end
				return
			}
			if e.live == 0 {
				break
			}
		}

		e.endEpoch(selected, start, end)
	}
}

// endEpoch applies SlipStream truncation, accounts the epoch's
// statistics, and performs the mode's epoch-boundary synchronization
// (§3.1).
func (e *Engine) endEpoch(selected []*coro.Thread, start, end vclock.Time) {
	if e.truncate {
		// A thread left a SlipStream region: shrink the epoch to the
		// furthest point actually executed and reschedule immediately.
		e.truncate = false
		newEnd := start
		for _, th := range selected {
			if c := st(th).cursor; c > newEnd {
				newEnd = c
			}
		}
		if newEnd < end {
			for _, th := range e.active {
				s := st(th)
				if !s.exited && !s.parked && s.wakeAt == end {
					e.setWake(s, newEnd)
				}
			}
			end = newEnd
		}
	}

	e.Stats.Epochs++
	e.Stats.ThreadEpochs += int64(len(selected))
	e.Stats.Rounds += int64((len(selected) + e.cfg.PhysicalCores - 1) / e.cfg.PhysicalCores)
	e.epochIdx++
	e.now = end

	// Epoch-boundary synchronization per mode (§3.1).
	switch e.cfg.Mode {
	case Eager:
		e.dev.Advance(end)
		e.Stats.Syncs++
		e.deliverIRQs(end)
	case Hybrid:
		if end >= e.nextSync {
			e.dev.Advance(end)
			e.Stats.Syncs++
			e.deliverIRQs(end)
			for e.nextSync <= end {
				e.nextSync += vclock.Time(e.cfg.SyncInterval)
			}
		}
	case Lazy:
		// Interrupts discovered during trap-driven catch-ups are
		// delivered at the epoch boundary; lazy mode never advances
		// devices on its own.
		if len(e.pending) > 0 {
			e.deliverIRQs(end)
		}
	}
}

// minWake returns the earliest wake time among live threads. The value
// is cached across epochs (setWake maintains it), so the scan over the
// active list only happens after the minimum-holding thread moved later.
//
//simlint:hotpath queried twice per epoch; the cache keeps it O(1)
func (e *Engine) minWake() vclock.Time {
	if !e.wakeValid {
		min := vclock.Never
		for _, th := range e.active {
			s := st(th)
			if s.exited || s.parked {
				continue
			}
			if s.wakeAt < min {
				min = s.wakeAt
			}
		}
		e.wakeMin = min
		e.wakeValid = true
	}
	return e.wakeMin
}

// runnableAt lists threads eligible to run in the epoch starting at t,
// in thread-creation order (deterministic). It scans only the active
// list (parked/exited threads are skipped wholesale) and reuses a
// scratch slice; callers must not retain the result past the next call.
func (e *Engine) runnableAt(t vclock.Time) []*coro.Thread {
	out := e.runnableBuf[:0]
	for _, th := range e.active {
		s := st(th)
		if !s.exited && !s.parked && s.wakeAt <= t {
			out = append(out, th)
		}
	}
	e.runnableBuf = out
	return out
}

// runThreadEpoch executes one thread's slot within [start, end). It
// reports whether a prefix halt fired (the thread yielded a device-bound
// request while haltArmed): the request is stashed un-processed in
// e.frame and the slot is left incomplete.
func (e *Engine) runThreadEpoch(th *coro.Thread, start, end vclock.Time) bool {
	s := st(th)
	cursor := start
	segStart := cursor
	for cursor < end {
		if s.deficit > 0 {
			step := s.deficit
			if avail := end.Sub(cursor); step > avail {
				step = avail
			}
			s.deficit -= step
			cursor = cursor.Add(step)
			s.vruntime += step
			if s.deficit > 0 {
				// Epoch exhausted mid-segment; continue next epoch.
				e.traceSpan(th.Name, trace.Compute, segStart, cursor)
				e.setWake(s, end)
				s.cursor = cursor
				return false
			}
			continue
		}

		s.cursor = cursor
		r := th.Resume()
		if e.recording {
			e.recordYield(th, r)
		}
		if e.haltArmed && e.deviceTouch(r) {
			e.frame = &haltFrame{req: r}
			return true
		}
		switch r.Op {
		case coro.OpExit:
			s.exited = true
			e.setWake(s, vclock.Never)
			e.markInactive()
			e.live--
			if cursor > e.finishT {
				e.finishT = cursor
			}
			e.traceSpan(th.Name, trace.Compute, segStart, cursor)
			return false

		case coro.OpAdvance:
			s.deficit = e.scaledDuration(s, r.Work)

		case coro.OpInteract:
			if r.Light {
				// Tick-mode task-buffer access: charged in-epoch, no trap.
				cost := r.Interact(cursor)
				cursor = cursor.Add(cost)
				s.vruntime += cost
				continue
			}
			e.trap(th, cursor, end, r)
			return false

		case coro.OpPark:
			if s.pending {
				s.pending = false
				continue
			}
			s.parked = true
			e.setWake(s, vclock.Never)
			e.markInactive()
			e.traceSpan(th.Name, trace.Compute, segStart, cursor)
			return false

		case coro.OpUnpark:
			t2 := st(r.Target)
			if t2.parked {
				t2.parked = false
				e.setWake(t2, end) // runnable from the next epoch: EBS skew
				e.ensureActive(t2)
			} else {
				t2.pending = true
			}

		case coro.OpSleep:
			e.setWake(s, cursor.Add(r.Dur))
			e.traceSpan(th.Name, trace.Blocked, cursor, s.wakeAt)
			return false

		case coro.OpSpawn:
			body, ok := r.Body.(app.ThreadFunc)
			if !ok {
				panic("nex: spawn body is not an app.ThreadFunc")
			}
			nt := e.newThread(r.Name, body)
			e.setWake(st(nt), end)
			th.Spawned = nt
			if e.recording {
				// Patch the child's ID into the journal entry so replay can
				// check the recreated thread got the same identity.
				e.journal[len(e.journal)-1].aux = nt.ID
			}

		case coro.OpWaitIRQ:
			s.parked = true
			e.setWake(s, vclock.Never)
			e.markInactive()
			e.irqWait[r.Vector] = append(e.irqWait[r.Vector], th)
			return false

		case coro.OpWarp:
			wasSlip := s.Slip
			s.Handle(r)
			if wasSlip && !s.Slip {
				// Exiting SlipStream resets the epoch duration and forces
				// an immediate reschedule (§3.4): end this thread's slot
				// and truncate the (large) epoch at its cursor.
				e.setWake(s, cursor)
				s.cursor = cursor
				e.truncate = true
				return false
			}

		case coro.OpTick:
			e.trap(th, cursor, end, r)
			return false
		}
	}
	// Used the whole epoch (e.g. finished a segment exactly at the
	// boundary): continue next epoch.
	e.setWake(s, end)
	s.cursor = end
	return false
}

// deviceTouch reports whether a yielded request is the accelerator-bound
// kind a prefix halt stops on: a trapping interaction addressed inside a
// device MMIO window, or a tick synchronization point with devices
// attached. Task-buffer traps (plain memory) don't qualify — they leave
// device state untouched.
func (e *Engine) deviceTouch(r coro.Request) bool {
	switch r.Op {
	case coro.OpTick:
		return e.dev.Len() > 0
	case coro.OpInteract:
		return !r.Light && e.dev.Lookup(mem.Addr(r.Addr)) != nil
	}
	return false
}

// trap resolves a device-bound trap — a trapping interaction or a tick
// synchronization point (see deviceTouch) — at its exact virtual time
// and ends the thread's slot: the trapping thread resumes at the epoch
// boundary, or when the interaction completes, if later — the paper's
// mid-epoch trap inaccuracy (§3.2). ResumeRun completes the halt-point
// request of a prefix halt through the same path.
func (e *Engine) trap(th *coro.Thread, cursor, end vclock.Time, r coro.Request) {
	e.Stats.Traps++
	cursor = e.dispatchFault(cursor)
	e.dev.Advance(cursor)
	if r.Op == coro.OpInteract {
		cost := r.Interact(cursor)
		e.traceSpan(th.Name, trace.MMIO, cursor, cursor.Add(cost))
		cursor = cursor.Add(cost)
	}
	e.setWake(st(th), max(end, cursor))
}

// dispatchFault crosses the device.dispatch injection site at a
// device-bound trap: a fail fault panics with the *faults.Injected
// (recovered into a transient error at the run boundary, which must
// then Reap the engine); a delay stalls the trap in virtual time.
func (e *Engine) dispatchFault(cursor vclock.Time) vclock.Time {
	inj := e.cfg.Faults.Hit(faults.SiteDeviceDispatch)
	if inj == nil {
		return cursor
	}
	if inj.Op == faults.OpFail {
		panic(inj)
	}
	return cursor.Add(vclock.Duration(inj.Delay))
}

// scaledDuration applies the engine's accuracy model to a compute
// segment: calibration bias, underprovisioning interference, per-epoch
// refill loss, and any active CompressT/JumpT warps.
func (e *Engine) scaledDuration(s *tstate, w isa.Work) vclock.Duration {
	if s.JumpT > 0 {
		return 0
	}
	d := w.NativeDuration(e.cfg.Clock)
	f := e.calBias * (1 + e.interfer)
	// Different code behaves differently under preemption: a small
	// deterministic per-segment component on top of the engine-wide
	// calibration bias (keyed by the segment's identity, not draw
	// order, so runs stay reproducible).
	if w.Seed != 0 && e.cfg.CalSigma > 1e-6 {
		z := w.Seed * 0x9e3779b97f4a7c15
		z ^= z >> 29
		f *= 1 + 0.02*(float64(int64(z%2048))-1024)/1024
	}
	// Refill loss: each epoch delivers slightly less useful native
	// execution than NEX credits, inflating simulated time by e/(e-r).
	if r := float64(e.cfg.RefillLoss); r > 0 {
		ep := float64(e.cfg.Epoch)
		f *= ep / (ep - r)
	}
	return s.Scale(vclock.Duration(float64(d) * f))
}

// deliverIRQs wakes WaitIRQ threads for pending interrupts; they become
// runnable at the boundary time.
func (e *Engine) deliverIRQs(boundary vclock.Time) {
	if len(e.pending) == 0 {
		return
	}
	remaining := e.pending[:0]
	for _, p := range e.pending {
		waiters := e.irqWait[p.vector]
		if len(waiters) == 0 {
			// No waiter yet: keep the interrupt pending (drivers would
			// otherwise lose the wakeup between checking the status
			// register and blocking).
			remaining = append(remaining, p)
			continue
		}
		th := waiters[0]
		e.irqWait[p.vector] = waiters[1:]
		s := st(th)
		s.parked = false
		wake := boundary
		if p.at > wake {
			wake = p.at
		}
		e.setWake(s, wake)
		e.ensureActive(s)
		e.Stats.IRQs++
	}
	e.pending = remaining
}

// traceSpan records one span on a traced run. The nil test comes before
// the Span is built: an untraced run otherwise pays for constructing the
// value once per thread-epoch only for Add to drop it.
func (e *Engine) traceSpan(comp string, k trace.Kind, a, b vclock.Time) {
	if e.cfg.Trace != nil {
		e.addSpan(comp, k, a, b)
	}
}

// addSpan is kept out of line so that traceSpan — the guard — stays
// inside the inliner's budget at its once-per-thread-epoch call sites.
//
//go:noinline
func (e *Engine) addSpan(comp string, k trace.Kind, a, b vclock.Time) {
	e.cfg.Trace.Add(trace.Span{Component: comp, Kind: k, Start: a, End: b})
}
