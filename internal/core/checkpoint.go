package core

import (
	"fmt"
	"time"

	"nexsim/internal/app"
	"nexsim/internal/checkpoint"
)

// Checkpoint/fork support (sweep prefix sharing): a NEX-hosted system
// can run an application prefix up to the first device interaction,
// serialize the engine into a content-addressed blob, and later fork any
// number of continuations from it, each byte-identical to a
// straight-through run. The blob is the NEX engine's section alone
// (thread states regenerate by journal replay). No device has done
// anything before the prefix halts, so every device is rebuilt by the
// engine re-clocking it to the halt time.

// CanCheckpoint reports whether this system supports prefix
// checkpointing: a NEX host without trace recording.
func (s *System) CanCheckpoint() bool {
	return s.nexEng != nil && s.cfg.Trace == nil
}

// RunPrefix runs prog up to (but not including) the first device
// interaction. When the program reaches a device, it returns
// (zero Result, false) with the system halted and checkpointable; when
// the program completes without touching a device, it returns the full
// result and true. Non-checkpointable systems run to completion.
func (s *System) RunPrefix(prog app.Program) (Result, bool) {
	if !s.CanCheckpoint() {
		return s.Run(prog), true
	}
	start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
	r, completed := s.nexEng.RunPrefix(prog)
	if !completed {
		return Result{}, false
	}
	return must(s.finish(start, r.SimTime)), true
}

// Checkpoint serializes the halted system into a blob. Two systems that
// ran the same prefix produce byte-identical blobs, so the blob is a
// content address usable as a sharing key.
func (s *System) Checkpoint() ([]byte, error) {
	if s.nexEng == nil {
		return nil, fmt.Errorf("core: checkpointing requires a NEX host")
	}
	if s.cfg.Trace != nil {
		return nil, fmt.Errorf("core: checkpointing is incompatible with trace recording")
	}
	enc := checkpoint.NewEncoder()
	if err := s.nexEng.SnapshotTo(enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// RestoreCheckpoint rebuilds a checkpointed run into this freshly built
// system. prog must be the same program the snapshotted system ran.
func (s *System) RestoreCheckpoint(blob []byte, prog app.Program) error {
	if s.nexEng == nil {
		return fmt.Errorf("core: checkpointing requires a NEX host")
	}
	dec, err := checkpoint.NewDecoder(blob)
	if err != nil {
		return err
	}
	if err := s.nexEng.Restore(dec, prog); err != nil {
		return err
	}
	if !dec.Done() {
		return fmt.Errorf("%w: %d trailing bytes after restore", checkpoint.ErrCorrupt, dec.Remaining())
	}
	// Re-clocking the devices crossed each channel once; that traffic is
	// the restore's, and the resumed run reports what a straight run does.
	for _, ch := range s.Channels {
		ch.Msgs, ch.Bytes = 0, 0
	}
	return nil
}

// ResumeRun continues a halted (prefix-run or restored) system to
// completion. The result matches what Run would have returned on a
// straight-through execution, except that the wall-time fields cover
// only the resumed portion. A budget abort panics (use TryResume for
// the structured error).
func (s *System) ResumeRun() Result { return must(s.TryResume()) }

// TryResume is ResumeRun under TryRun's contract: a run that exceeds
// its Budget is reaped and reported as an error wrapping
// ErrBudgetExceeded.
func (s *System) TryResume() (Result, error) {
	start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
	return s.finish(start, s.nexEng.ResumeRun().SimTime)
}
