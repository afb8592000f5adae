package nex

import (
	"errors"
	"fmt"
	"sort"

	"nexsim/internal/app"
	"nexsim/internal/checkpoint"
	"nexsim/internal/coro"
	"nexsim/internal/hostkit"
	"nexsim/internal/vclock"
)

// Prefix checkpointing (paper §6.4 interactive sweeps; SimBricks-style
// checkpoint orchestration).
//
// A NEX thread is a goroutine, so its stack cannot be serialized. What
// *can* be serialized is everything the engine decided: the global order
// of thread yields. Before the first accelerator interaction the
// simulated machine's memory is produced exclusively by thread code (no
// device DMA has happened yet), so replaying the journal — resuming each
// thread in the recorded global order and letting its real code run
// between yields — reconstructs both every goroutine's position and the
// entire memory image. The scheduler's timing state (wakes, deficits,
// cursors, statistics) is then overlaid from the snapshot, and the
// restored engine continues byte-identically to one that never halted.
//
// RunPrefix arms a halt on the first device-bound request (deviceTouch):
// a trapping MMIO access or a tick synchronization point. Every
// normalized sweep spec that shares the host-side configuration executes
// an identical prefix, so the snapshot blob — and its content hash — is
// identical across the group.

// journalEntry records one thread yield: which thread resumed, at what
// cursor, and what it asked for. Everything else about the yield is
// regenerated by re-executing the thread's code.
type journalEntry struct {
	tid    int
	op     coro.Op
	light  bool
	cursor vclock.Time
	aux    int // OpSpawn: the child's thread ID
}

// maxJournal bounds replay cost; a longer prefix abandons checkpointing
// and simply runs to completion.
const maxJournal = 1 << 20

// recordYield appends the yield to the replay journal, abandoning
// checkpointing if the prefix is too long to replay economically.
func (e *Engine) recordYield(th *coro.Thread, r coro.Request) {
	if len(e.journal) >= maxJournal {
		e.recording = false
		e.haltArmed = false
		e.journal = nil
		return
	}
	e.journal = append(e.journal, journalEntry{
		tid:    th.ID,
		op:     r.Op,
		light:  r.Light,
		cursor: st(th).cursor,
		aux:    -1,
	})
}

// RunPrefix executes prog until an application thread first interacts
// with an accelerator device — the longest prefix whose execution is
// independent of accelerator parameterization. On a halt it returns
// completed=false with the engine frozen mid-epoch: call SnapshotTo to
// serialize the state and/or ResumeRun to continue this engine. If the
// program finishes without touching a device (or the prefix outgrows the
// journal bound) it returns the final result with completed=true.
func (e *Engine) RunPrefix(prog app.Program) (res Result, completed bool) {
	main := e.newThread("main", prog.Main)
	e.setWake(st(main), 0)
	e.nextSync = vclock.Time(e.cfg.SyncInterval)
	e.recording = true
	e.haltArmed = e.dev.Len() > 0
	e.startWatchdog()
	e.loop()
	if e.frame != nil {
		return Result{}, false
	}
	e.recording = false
	e.journal = nil
	return e.result(), true
}

// Halted reports whether the engine is frozen at a prefix halt.
func (e *Engine) Halted() bool { return e.frame != nil }

// ResumeRun continues a halted engine (after RunPrefix or Restore) to
// completion: it processes the stashed halt request, finishes the
// interrupted epoch, and re-enters the main loop.
func (e *Engine) ResumeRun() Result {
	e.recording = false
	e.haltArmed = false
	e.journal = nil
	e.startWatchdog()
	if f := e.frame; f != nil {
		e.frame = nil
		halted := f.selected[f.idx]
		e.trap(halted, st(halted).cursor, f.end, f.req)
		for i := f.idx + 1; i < len(f.selected); i++ {
			if e.live == 0 {
				break
			}
			e.runThreadEpoch(f.selected[i], f.start, f.end)
		}
		e.endEpoch(f.selected, f.start, f.end)
	}
	e.loop()
	return e.result()
}

// SnapshotTo serializes a prefix-halted engine: a configuration
// fingerprint, the scheduler state, and the replay journal. The encoding
// is a pure function of the halted state, so identical prefixes produce
// byte-identical sections.
func (e *Engine) SnapshotTo(enc *checkpoint.Encoder) error {
	f := e.frame
	if f == nil {
		return errors.New("nex: snapshot of a non-halted engine")
	}

	// Configuration fingerprint: Restore must run on an engine built
	// from the same normalized spec; these catch planner mistakes early.
	enc.U64(uint64(e.cfg.Clock))
	enc.I64(int64(e.cfg.Epoch))
	enc.Int(e.cfg.VirtualCores)
	enc.Int(e.cfg.PhysicalCores)
	enc.Int(int(e.cfg.Mode))
	enc.I64(int64(e.cfg.SyncInterval))
	enc.Bool(e.cfg.TickMode)
	enc.U64(e.cfg.Seed)

	// Engine clocks and counters.
	enc.I64(int64(e.now))
	enc.I64(int64(e.dev.Time()))
	enc.I64(int64(e.finishT))
	enc.I64(int64(e.nextSync))
	enc.I64(e.epochIdx)
	enc.Int(e.live)
	enc.Int(e.nextTID)
	enc.Bool(e.truncate)
	enc.I64(e.Stats.Epochs)
	enc.I64(e.Stats.ThreadEpochs)
	enc.I64(e.Stats.Rounds)
	enc.I64(e.Stats.Traps)
	enc.I64(e.Stats.Syncs)
	enc.I64(e.Stats.IRQs)
	enc.I64(e.Stats.IdleJumps)

	// Per-thread scheduler state, in creation (= ID) order.
	enc.Int(len(e.threads))
	for _, th := range e.threads {
		s := st(th)
		enc.I64(int64(s.wakeAt))
		enc.Bool(s.parked)
		enc.Bool(s.pending)
		enc.I64(int64(s.deficit))
		enc.I64(int64(s.vruntime))
		enc.Int(len(s.Compress))
		for _, c := range s.Compress {
			enc.F64(c)
		}
		enc.Int(s.JumpT)
		enc.Bool(s.Slip)
		enc.U64(s.SeedCtr)
		enc.Bool(s.exited)
		enc.I64(int64(s.cursor))
	}

	// Interrupt state: waiter lists per vector (sorted — irqWait is a
	// map), then undelivered interrupts in arrival order.
	var vecs []int
	for vec, waiters := range e.irqWait {
		if len(waiters) > 0 {
			vecs = append(vecs, vec)
		}
	}
	sort.Ints(vecs)
	enc.Int(len(vecs))
	for _, vec := range vecs {
		enc.Int(vec)
		waiters := e.irqWait[vec]
		enc.Int(len(waiters))
		for _, th := range waiters {
			enc.Int(th.ID)
		}
	}
	enc.Int(len(e.pending))
	for _, p := range e.pending {
		enc.I64(int64(p.at))
		enc.Int(p.vector)
	}

	// Halt frame (the request itself is regenerated by replay).
	enc.I64(int64(f.start))
	enc.I64(int64(f.end))
	enc.Int(f.idx)
	enc.Int(len(f.selected))
	for _, th := range f.selected {
		enc.Int(th.ID)
	}

	// Replay journal.
	enc.Int(len(e.journal))
	for _, je := range e.journal {
		enc.Int(je.tid)
		enc.Int(int(je.op))
		enc.Bool(je.light)
		enc.I64(int64(je.cursor))
		enc.Int(je.aux)
	}
	return nil
}

// divergef reports a replay divergence: the program run against the
// restoring engine did not reproduce the journaled prefix (a planner bug
// — the spec's host side differed — or nondeterminism in the workload).
func divergef(format string, args ...any) error {
	return fmt.Errorf("nex: replay divergence: "+format, args...)
}

// Restore reconstructs a prefix-halted engine from a SnapshotTo section
// on a freshly built, identically configured engine about to run prog.
// Thread goroutines are rebuilt by replaying the journal — each yield is
// re-executed by the thread's real code, regenerating all memory
// contents — then the scheduler state is overlaid. The engine is left
// halted; ResumeRun continues it byte-identically to a straight run.
func (e *Engine) Restore(dec *checkpoint.Decoder, prog app.Program) error {
	if len(e.threads) != 0 || e.frame != nil {
		return errors.New("nex: restore into a used engine")
	}

	if clk := vclock.Hz(dec.U64()); clk != e.cfg.Clock {
		return fmt.Errorf("nex: restore config mismatch: clock %v != %v", clk, e.cfg.Clock)
	}
	if ep := vclock.Duration(dec.I64()); ep != e.cfg.Epoch {
		return fmt.Errorf("nex: restore config mismatch: epoch %v != %v", ep, e.cfg.Epoch)
	}
	if v := dec.Int(); v != e.cfg.VirtualCores {
		return fmt.Errorf("nex: restore config mismatch: vcores %d != %d", v, e.cfg.VirtualCores)
	}
	if v := dec.Int(); v != e.cfg.PhysicalCores {
		return fmt.Errorf("nex: restore config mismatch: pcores %d != %d", v, e.cfg.PhysicalCores)
	}
	if m := SyncMode(dec.Int()); m != e.cfg.Mode {
		return fmt.Errorf("nex: restore config mismatch: mode %v != %v", m, e.cfg.Mode)
	}
	if si := vclock.Duration(dec.I64()); si != e.cfg.SyncInterval {
		return fmt.Errorf("nex: restore config mismatch: sync interval %v != %v", si, e.cfg.SyncInterval)
	}
	if tm := dec.Bool(); tm != e.cfg.TickMode {
		return fmt.Errorf("nex: restore config mismatch: tick mode %v != %v", tm, e.cfg.TickMode)
	}
	if s := dec.U64(); s != e.cfg.Seed {
		return fmt.Errorf("nex: restore config mismatch: seed %d != %d", s, e.cfg.Seed)
	}

	now := vclock.Time(dec.I64())
	devTime := vclock.Time(dec.I64())
	finishT := vclock.Time(dec.I64())
	nextSync := vclock.Time(dec.I64())
	epochIdx := dec.I64()
	live := dec.Int()
	nextTID := dec.Int()
	truncate := dec.Bool()
	var stats Stats
	stats.Epochs = dec.I64()
	stats.ThreadEpochs = dec.I64()
	stats.Rounds = dec.I64()
	stats.Traps = dec.I64()
	stats.Syncs = dec.I64()
	stats.IRQs = dec.I64()
	stats.IdleJumps = dec.I64()

	nthreads := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if nthreads <= 0 || nthreads > maxJournal {
		return fmt.Errorf("%w: thread count %d", checkpoint.ErrCorrupt, nthreads)
	}
	type tsnap struct {
		wakeAt   vclock.Time
		parked   bool
		pending  bool
		deficit  vclock.Duration
		vruntime vclock.Duration
		warp     hostkit.Warp
		exited   bool
		cursor   vclock.Time
	}
	tsnaps := make([]tsnap, nthreads)
	for i := range tsnaps {
		t := &tsnaps[i]
		t.wakeAt = vclock.Time(dec.I64())
		t.parked = dec.Bool()
		t.pending = dec.Bool()
		t.deficit = vclock.Duration(dec.I64())
		t.vruntime = vclock.Duration(dec.I64())
		nc := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if nc < 0 || nc > 1024 {
			return fmt.Errorf("%w: compress depth %d", checkpoint.ErrCorrupt, nc)
		}
		for j := 0; j < nc; j++ {
			t.warp.Compress = append(t.warp.Compress, dec.F64())
		}
		t.warp.JumpT = dec.Int()
		t.warp.Slip = dec.Bool()
		t.warp.SeedCtr = dec.U64()
		t.exited = dec.Bool()
		t.cursor = vclock.Time(dec.I64())
	}

	checkTID := func(tid int) error {
		if tid < 0 || tid >= nthreads {
			return fmt.Errorf("%w: thread ID %d out of range", checkpoint.ErrCorrupt, tid)
		}
		return nil
	}

	nvecs := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	irqWait := make(map[int][]int)
	var vecOrder []int
	for i := 0; i < nvecs; i++ {
		vec := dec.Int()
		nw := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if nw < 0 || nw > nthreads {
			return fmt.Errorf("%w: waiter count %d", checkpoint.ErrCorrupt, nw)
		}
		tids := make([]int, nw)
		for j := range tids {
			tids[j] = dec.Int()
			if err := checkTID(tids[j]); err != nil {
				return err
			}
		}
		irqWait[vec] = tids
		vecOrder = append(vecOrder, vec)
	}
	npend := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if npend < 0 || npend > maxJournal {
		return fmt.Errorf("%w: pending IRQ count %d", checkpoint.ErrCorrupt, npend)
	}
	pending := make([]pendingIRQ, npend)
	for i := range pending {
		pending[i].at = vclock.Time(dec.I64())
		pending[i].vector = dec.Int()
	}

	fStart := vclock.Time(dec.I64())
	fEnd := vclock.Time(dec.I64())
	fIdx := dec.Int()
	nsel := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if nsel <= 0 || nsel > nthreads || fIdx < 0 || fIdx >= nsel {
		return fmt.Errorf("%w: halt frame shape (%d selected, idx %d)", checkpoint.ErrCorrupt, nsel, fIdx)
	}
	selTIDs := make([]int, nsel)
	for i := range selTIDs {
		selTIDs[i] = dec.Int()
		if err := checkTID(selTIDs[i]); err != nil {
			return err
		}
	}

	njournal := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if njournal <= 0 || njournal > maxJournal {
		return fmt.Errorf("%w: journal length %d", checkpoint.ErrCorrupt, njournal)
	}
	journal := make([]journalEntry, njournal)
	for i := range journal {
		je := &journal[i]
		je.tid = dec.Int()
		je.op = coro.Op(dec.Int())
		je.light = dec.Bool()
		je.cursor = vclock.Time(dec.I64())
		je.aux = dec.Int()
		if err := checkTID(je.tid); err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}

	// Replay: resume threads in the recorded global order, letting their
	// real code run between yields. Memory contents regenerate as a side
	// effect; only memory-writing interactions need their closures run.
	e.newThread("main", prog.Main)
	var haltReq coro.Request
	for i := range journal {
		je := &journal[i]
		if je.tid >= len(e.threads) {
			return divergef("entry %d resumes thread %d before it was spawned", i, je.tid)
		}
		th := e.threads[je.tid]
		st(th).cursor = je.cursor
		r := th.Resume()
		if r.Op != je.op || r.Light != je.light {
			return divergef("entry %d: thread %d yielded op %d (light=%v), journal has op %d (light=%v)",
				i, je.tid, r.Op, r.Light, je.op, je.light)
		}
		if i == len(journal)-1 {
			// The halt-point request stays unprocessed; ResumeRun
			// completes it.
			haltReq = r
			break
		}
		switch r.Op {
		case coro.OpSpawn:
			body, ok := r.Body.(app.ThreadFunc)
			if !ok {
				return divergef("entry %d: spawn body is not an app.ThreadFunc", i)
			}
			nt := e.newThread(r.Name, body)
			if nt.ID != je.aux {
				return divergef("entry %d: spawned thread %d, journal has %d", i, nt.ID, je.aux)
			}
			th.Spawned = nt
		case coro.OpInteract:
			// Task-buffer access: run the closure for its memory effect.
			// The cost is irrelevant (timing is overlaid below), and
			// device-bound interactions cannot appear mid-journal — the
			// prefix halted on the first one.
			r.Interact(je.cursor)
		}
	}
	if !e.deviceTouch(haltReq) {
		return divergef("final journal entry is not a device interaction")
	}
	if len(e.threads) != nthreads {
		return divergef("replay produced %d threads, snapshot has %d", len(e.threads), nthreads)
	}
	if e.nextTID != nextTID {
		return divergef("replay produced nextTID %d, snapshot has %d", e.nextTID, nextTID)
	}
	lastTID := journal[len(journal)-1].tid
	if selTIDs[fIdx] != lastTID {
		return divergef("halt frame slot %d is thread %d, journal halts in thread %d",
			fIdx, selTIDs[fIdx], lastTID)
	}

	// Overlay the scheduler's timing state.
	for i, th := range e.threads {
		s := st(th)
		t := &tsnaps[i]
		s.wakeAt = t.wakeAt
		s.parked = t.parked
		s.pending = t.pending
		s.deficit = t.deficit
		s.vruntime = t.vruntime
		s.Warp = t.warp
		s.exited = t.exited
		s.cursor = t.cursor
	}
	e.now = now
	// Pre-halt synchronization only moved idle device clocks (the prefix
	// ends at the *first* device interaction), so re-advancing freshly
	// built devices reproduces their whole state.
	e.dev.Advance(devTime)
	e.finishT = finishT
	e.nextSync = nextSync
	e.epochIdx = epochIdx
	e.live = live
	e.truncate = truncate
	e.Stats = stats

	// Rebuild the hot-path scheduler structures from the overlaid state
	// (a fully compacted active list; the wake cache re-fills lazily).
	e.active = e.active[:0]
	for _, th := range e.threads {
		s := st(th)
		s.inActive = false
		if !s.exited && !s.parked {
			e.active = append(e.active, th)
			s.inActive = true
		}
	}
	e.inactiveN = 0
	e.wakeValid = false

	e.irqWait = make(map[int][]*coro.Thread)
	for _, vec := range vecOrder {
		tids := irqWait[vec]
		waiters := make([]*coro.Thread, len(tids))
		for i, tid := range tids {
			waiters[i] = e.threads[tid]
		}
		e.irqWait[vec] = waiters
	}
	e.pending = pending

	f := &haltFrame{
		selected: make([]*coro.Thread, nsel),
		idx:      fIdx,
		start:    fStart,
		end:      fEnd,
		req:      haltReq,
	}
	for i, tid := range selTIDs {
		f.selected[i] = e.threads[tid]
	}
	e.frame = f
	e.journal = nil
	return nil
}
