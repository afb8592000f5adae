package nex

import (
	"bytes"
	"encoding/binary"
	"errors"

	"nexsim/internal/app"
	"nexsim/internal/vclock"
)

// Prefix checkpointing (paper §6.4 interactive sweeps; SimBricks-style
// checkpoint orchestration).
//
// RunPrefix arms a halt on the first device-bound request (deviceTouch):
// a trapping MMIO access. (In tick mode task-buffer accesses stay light,
// so the halt lands on the driver's doorbell write.) Everything
// before it is independent of the accelerator's parameters, so every
// normalized sweep spec that shares the host-side configuration runs an
// identical prefix and halts at the same point.
//
// A NEX thread is a goroutine, so its stack cannot be serialized, and a
// checkpoint does not try to: it is a fingerprint of the halt point.
// Restore re-runs the prefix on a fresh engine and refuses a fingerprint
// it does not reproduce. The engine is deterministic and the prefix is
// short, so the re-run is cheap, and a fork equals a straight run by
// construction — no engine state can be missing from the blob.

// RunPrefix executes prog until an application thread first interacts
// with an accelerator device — the longest prefix whose execution is
// independent of accelerator parameterization. On a halt it returns
// completed=false with the engine frozen mid-epoch: call Fingerprint to
// identify the halt point and/or ResumeRun to continue this engine. If
// the program finishes without touching a device (or aborts on its
// budget) it returns the final result with completed=true.
func (e *Engine) RunPrefix(prog app.Program) (simTime vclock.Duration, completed bool) {
	e.start(prog)
	e.haltArmed = e.Dev.Len() > 0
	e.loop()
	if e.frame != nil {
		return 0, false
	}
	return e.simTime(), true
}

// ResumeRun continues a halted engine (after RunPrefix or Restore) to
// completion: it processes the stashed halt request, finishes the
// interrupted epoch, and re-enters the main loop. An engine whose
// restored prefix aborted on its budget stays aborted.
func (e *Engine) ResumeRun() vclock.Duration {
	if e.BudgetExceeded() {
		return e.simTime()
	}
	e.haltArmed = false
	e.StartWatchdog()
	if f := e.frame; f != nil {
		e.frame = nil
		halted := f.selected[f.idx]
		e.trap(halted, st(halted).cursor, f.end, f.req)
		for i := f.idx + 1; i < len(f.selected); i++ {
			if e.Live == 0 {
				break
			}
			e.runThreadEpoch(f.selected[i], f.start, f.end)
		}
		e.endEpoch(f.selected, f.start, f.end)
	}
	e.loop()
	return e.simTime()
}

// Fingerprint identifies a prefix-halted engine: the configuration
// fields that shape a prefix, then the halt point — the engine and
// device clocks, the epoch count, the thread census, the halt frame and
// the statistics. It is a pure function of the prefix, so two engines
// that ran the same prefix return the same bytes.
func (e *Engine) Fingerprint() ([]byte, error) {
	f := e.frame
	if f == nil {
		return nil, errors.New("nex: fingerprint of a non-halted engine")
	}
	tick := int64(0)
	if e.cfg.TickMode {
		tick = 1
	}
	// The thread census is written twice (it once was two counters, the
	// thread list's length and the next ID), so blobs keep their bytes.
	threads := int64(len(e.Threads))
	v := []int64{
		int64(e.cfg.Clock), int64(e.cfg.Epoch), int64(e.cfg.VirtualCores),
		int64(e.cfg.PhysicalCores), int64(e.cfg.Mode), int64(e.cfg.SyncInterval),
		tick, int64(e.cfg.Seed),
		int64(e.now), int64(e.Dev.Time()), int64(e.nextSync), e.epochIdx,
		threads, threads, int64(f.idx), int64(len(f.selected)),
	}
	for _, th := range f.selected {
		v = append(v, int64(th.ID))
	}
	s := e.Stats
	v = append(v, s.Epochs, s.ThreadEpochs, s.Rounds, s.Traps, s.Syncs, s.IRQs, s.IdleJumps)
	return binary.Append(nil, binary.LittleEndian, v)
}

// Restore brings a freshly built engine to the halt point blob
// fingerprints by re-running prog's prefix, and refuses a blob the
// re-run does not reproduce (another program, seed or host
// configuration); a refused engine is reaped. On success the engine is
// halted exactly as after RunPrefix. A prefix that aborts on the
// engine's budget is not refused: ResumeRun reports the abort, as Run
// would have.
func (e *Engine) Restore(blob []byte, prog app.Program) error {
	if len(e.Threads) != 0 {
		return errors.New("nex: restore into a used engine")
	}
	if _, completed := e.RunPrefix(prog); completed {
		if e.BudgetExceeded() {
			return nil
		}
		return errors.New("nex: restore: the program finished without reaching the checkpoint")
	}
	if fp, _ := e.Fingerprint(); !bytes.Equal(fp, blob) {
		e.Reap()
		return errors.New("nex: restore: the prefix does not halt where the checkpoint did")
	}
	return nil
}
