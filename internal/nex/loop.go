package nex

import (
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
	for e.Live > 0 {
		if e.OverBudget(e.epochIdx) {
			// Structured abort: within one epoch of the bound (the epoch
			// check is exact), leaving threads parked for Reap.
			return
		}
		minWake := e.minWake()

		if minWake == vclock.Never {
			// Everyone is parked; progress can only come from an
			// undelivered interrupt or future device activity. (Device
			// activity before a thread wake needs no handling in the
			// normal path: hybrid/eager deliver it via the periodic
			// synchronization below, and lazy defers it by definition.)
			if e.Raised() {
				e.deliver(e.roundUp(e.now))
				continue
			}
			devNext, okD := e.Dev.NextEvent()
			if !okD {
				panic("nex: deadlock — live threads, no wakes, idle devices")
			}
			e.Dev.Advance(devNext)
			e.deliver(e.roundUp(devNext))
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
					e.Dev.Advance(e.nextSync)
					e.Stats.Syncs++
					e.deliver(e.nextSync)
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
			// The complementary policy (§3.3, §A.1) picks which run.
			selected = selectFair(e.epochIdx, runnable, e.cfg.VirtualCores, e.cfg.Epoch)
		}
		end := start.Add(e.epochLen(selected))

		for i, th := range selected {
			if e.runThreadEpoch(th, start, end) {
				// Prefix halt: the request e.frame.req was yielded but not
				// processed. Freeze the slot-loop position; ResumeRun picks
				// the epoch back up from here. selected aliases scratch, so
				// copy it.
				e.frame.selected = append([]*coro.Thread(nil), selected...)
				e.frame.idx = i
				e.frame.start = start
				e.frame.end = end
				return
			}
			if e.Live == 0 {
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
			for _, th := range e.Threads {
				s := st(th)
				if s.wakeAt == end {
					s.wakeAt = newEnd
				}
			}
			// An interrupt delivered at the truncated end wakes there.
			end, e.slotEnd = newEnd, newEnd
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
		e.Dev.Advance(end)
		e.Stats.Syncs++
		e.deliver(end)
	case Hybrid:
		if end >= e.nextSync {
			e.Dev.Advance(end)
			e.Stats.Syncs++
			e.deliver(end)
			for e.nextSync <= end {
				e.nextSync += vclock.Time(e.cfg.SyncInterval)
			}
		}
	case Lazy:
		// Interrupts discovered during trap-driven catch-ups are
		// delivered at the epoch boundary; lazy mode never advances
		// devices on its own.
		if e.Raised() {
			e.deliver(end)
		}
	}
}

// minWake returns the earliest wake time among live threads. Like
// runnableAt it scans every thread the run has created: the largest
// catalog run has 17 (npb-*.16 plus main), so the scan costs less than
// an index kept in step with every yield would.
//
//simlint:hotpath scanned once per epoch
func (e *Engine) minWake() vclock.Time {
	min := vclock.Never
	for _, th := range e.Threads {
		s := st(th)
		if s.wakeAt < min {
			min = s.wakeAt
		}
	}
	return min
}

// runnableAt lists threads eligible to run in the epoch starting at t,
// in thread-creation order (deterministic). It reuses a scratch slice;
// callers must not retain the result past the next call.
func (e *Engine) runnableAt(t vclock.Time) []*coro.Thread {
	out := e.runnableBuf[:0]
	for _, th := range e.Threads {
		s := st(th)
		if s.wakeAt <= t {
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
	e.slotEnd = end
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
			if s.deficit > 0 {
				// Epoch exhausted mid-segment; continue next epoch.
				e.TraceSpan(th.Name, trace.Compute, segStart, cursor)
				s.wakeAt = end
				s.cursor = cursor
				return false
			}
			continue
		}

		s.cursor = cursor
		r := th.Resume()
		if e.haltArmed && e.deviceTouch(r) {
			e.frame = &haltFrame{req: r}
			return true
		}
		switch r.Op {
		case coro.OpExit:
			s.wakeAt = vclock.Never
			e.Live--
			if cursor > e.finishT {
				e.finishT = cursor
			}
			e.TraceSpan(th.Name, trace.Compute, segStart, cursor)
			return false

		case coro.OpAdvance:
			s.deficit = e.scaledDuration(s, r.Work)

		case coro.OpInteract:
			if r.Light {
				// Tick-mode task-buffer access: charged in-epoch, no trap.
				cost := r.Interact(cursor)
				cursor = cursor.Add(cost)
				continue
			}
			e.trap(th, cursor, end, r)
			return false

		case coro.OpPark:
			s.wakeAt = vclock.Never
			e.TraceSpan(th.Name, trace.Compute, segStart, cursor)
			return false

		case coro.OpSleep:
			s.wakeAt = cursor.Add(r.Dur)
			e.TraceSpan(th.Name, trace.Blocked, cursor, s.wakeAt)
			return false

		case coro.OpSlipExit:
			// Exiting SlipStream resets the epoch duration and forces an
			// immediate reschedule (§3.4): end this thread's slot and
			// truncate the (large) epoch at its cursor.
			s.wakeAt = cursor
			s.cursor = cursor
			e.truncate = true
			return false
		}
	}
	// Used the whole epoch (e.g. finished a segment exactly at the
	// boundary): continue next epoch.
	s.wakeAt = end
	s.cursor = end
	return false
}

// deviceTouch reports whether a yielded request is the accelerator-bound
// kind a prefix halt stops on: a trapping interaction addressed inside a
// device MMIO window. Task-buffer traps (plain memory) don't qualify —
// they leave device state untouched.
func (e *Engine) deviceTouch(r coro.Request) bool {
	return r.Op == coro.OpInteract && !r.Light && e.Dev.Lookup(mem.Addr(r.Addr)) != nil
}

// trap resolves a trapping interaction at its exact virtual time and
// ends the thread's slot: the trapping thread resumes at the epoch
// boundary, or when the interaction completes, if later — the paper's
// mid-epoch trap inaccuracy (§3.2). ResumeRun completes the halt-point
// request of a prefix halt through the same path.
func (e *Engine) trap(th *coro.Thread, cursor, end vclock.Time, r coro.Request) {
	e.Stats.Traps++
	cursor = e.dispatchFault(cursor)
	e.Dev.Advance(cursor)
	cost := r.Interact(cursor)
	e.TraceSpan(th.Name, trace.MMIO, cursor, cursor.Add(cost))
	cursor = cursor.Add(cost)
	st(th).wakeAt = max(end, cursor)
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
	// order, so runs stay reproducible). The float64 conversion rounds
	// the product before the sum, so no architecture fuses them.
	if w.Seed != 0 && e.cfg.CalSigma > 1e-6 {
		z := w.Seed * 0x9e3779b97f4a7c15
		z ^= z >> 29
		f *= 1 + float64(0.02*(float64(int64(z%2048))-1024)/1024)
	}
	// Refill loss: each epoch delivers slightly less useful native
	// execution than NEX credits, inflating simulated time by e/(e-r).
	if r := float64(e.cfg.RefillLoss); r > 0 {
		ep := float64(e.cfg.Epoch)
		f *= ep / (ep - r)
	}
	return s.Scale(vclock.Duration(float64(d) * f))
}

// deliver delivers the raised interrupts at a boundary of the sync
// mode (hostkit.Shell.Deliver) and keeps Stats.IRQs the shell's count.
func (e *Engine) deliver(boundary vclock.Time) {
	e.Deliver(boundary)
	e.Stats.IRQs = e.IRQs()
}
