package hostkit

import "nexsim/internal/vclock"

// ThreadState is hostkit's per-thread record: the thread's time-warp
// state (§3.4) and its park handshake. The engines embed it in their
// per-thread state and read the warps when they turn a compute segment
// into a duration; only the thread's Env and the Shell write it.
type ThreadState struct {
	Compress []float64 // stack of active CompressT factors
	JumpT    int       // JumpT nesting depth; > 0 means outside virtual time
	Slip     int       // SlipStream nesting depth; > 0 means in slip mode
	SeedCtr  uint64    // ComputeFor's per-thread segment counter

	// parked: the thread is blocked in Park or WaitIRQ, so an Unpark
	// hands it to the engine's wake rule. pending: an Unpark found it
	// running, so its next Park returns at once. One pending wake is
	// kept, however many Unparks found the thread running. irq: the
	// device whose wait list holds the thread while it blocks in
	// WaitIRQ, nil otherwise.
	parked, pending bool
	irq             *Binding
}

// Scale divides a compute duration by every active CompressT factor.
func (w *ThreadState) Scale(d vclock.Duration) vclock.Duration {
	for _, f := range w.Compress {
		d = vclock.Duration(float64(d) / f)
	}
	return d
}
