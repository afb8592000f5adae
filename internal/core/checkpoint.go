package core

import (
	"fmt"
	"time"

	"nexsim/internal/app"
)

// Checkpoint/fork support (sweep prefix sharing): a NEX-hosted system
// can run an application prefix up to the first device interaction and
// fork any number of continuations from that point, each byte-identical
// to a straight-through run. A checkpoint blob is the halted engine's
// fingerprint (nex.Engine.Fingerprint), a content address rather than
// saved state: a fork re-runs the prefix on its freshly built system and
// checks that it halts where the blob says.

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
	simTime, completed := s.nexEng.RunPrefix(prog)
	if !completed {
		return Result{}, false
	}
	return must(s.finish(start, simTime)), true
}

// Checkpoint fingerprints the halted system into a blob. Two systems
// that ran the same prefix produce byte-identical blobs, so the blob is
// a content address usable as a sharing key.
func (s *System) Checkpoint() ([]byte, error) {
	if s.nexEng == nil {
		return nil, fmt.Errorf("core: checkpointing requires a NEX host")
	}
	if s.cfg.Trace != nil {
		return nil, fmt.Errorf("core: checkpointing is incompatible with trace recording")
	}
	return s.nexEng.Fingerprint()
}

// RestoreCheckpoint brings this freshly built system to the halt point
// blob fingerprints by re-running prog's prefix; prog must be the
// program the checkpointed system ran. A refused blob leaves the
// system's threads reaped: Release it and run a fresh one.
func (s *System) RestoreCheckpoint(blob []byte, prog app.Program) error {
	if s.nexEng == nil {
		return fmt.Errorf("core: checkpointing requires a NEX host")
	}
	return s.nexEng.Restore(blob, prog)
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
	return s.finish(start, s.nexEng.ResumeRun())
}
