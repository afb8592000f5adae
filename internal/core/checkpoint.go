package core

import (
	"fmt"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/app"
	"nexsim/internal/checkpoint"
)

// Checkpoint/fork support (sweep prefix sharing): a NEX-hosted system
// can run an application prefix up to the first device interaction,
// serialize the full engine + device state into a content-addressed
// blob, and later fork any number of continuations from it — each
// byte-identical to a straight-through run. The host side is captured
// by the NEX journal snapshot (thread states regenerate by replay);
// each device contributes its own section when it knows how to
// serialize itself, and is otherwise restored to its idle re-clocked
// state by the engine (sound because the prefix ends strictly before
// the first interaction with it).

// stateful is implemented by devices that serialize their own dynamic
// state (dsim.Base and everything embedding it).
type stateful interface {
	SnapshotTo(*checkpoint.Encoder)
	RestoreFrom(*checkpoint.Decoder) error
}

// unwrap peels channel adapters off a device for state access.
func unwrap(d accel.Device) accel.Device {
	type unwrapper interface{ Unwrap() accel.Device }
	for {
		u, ok := d.(unwrapper)
		if !ok {
			return d
		}
		d = u.Unwrap()
	}
}

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
// ran the same prefix produce byte-identical blobs, so the blob's
// checkpoint.Hash is a content address usable as a sharing key.
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
	// Device sections are length-framed sub-blobs: a restore target that
	// cannot consume one (a different accelerator engine bound at the
	// divergence point) skips it — sound because the prefix ended
	// strictly before the first interaction with any device, so every
	// section is the device's idle state and the engine's re-clocking
	// reproduces it for opaque devices.
	enc.Int(len(s.binds))
	for _, d := range s.binds {
		if st, ok := unwrap(d).(stateful); ok {
			sub := checkpoint.NewEncoder()
			st.SnapshotTo(sub)
			enc.Bytes8(sub.Bytes())
		} else {
			enc.Bytes8(nil)
		}
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
	nd := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nd != len(s.binds) {
		return fmt.Errorf("%w: checkpoint has %d devices, system has %d", checkpoint.ErrCorrupt, nd, len(s.binds))
	}
	for i, d := range s.binds {
		section := dec.Bytes8()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(section) == 0 {
			continue
		}
		st, ok := unwrap(d).(stateful)
		if !ok {
			// Opaque target: the engine already re-clocked it; the
			// section describes the same idle state, so skip it.
			continue
		}
		sub, err := checkpoint.NewDecoder(section)
		if err != nil {
			return fmt.Errorf("device %d (%s): %w", i, d.Name(), err)
		}
		if err := st.RestoreFrom(sub); err != nil {
			return fmt.Errorf("device %d (%s): %w", i, d.Name(), err)
		}
		if !sub.Done() {
			return fmt.Errorf("%w: device %d (%s) section has trailing bytes", checkpoint.ErrCorrupt, i, d.Name())
		}
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
