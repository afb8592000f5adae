package hostkit

import "nexsim/internal/vclock"

// Warp is one thread's time-warp state (§3.4). The engines embed it in
// their per-thread state and read it when they turn a compute segment
// into a duration; only the thread's Env writes it.
type Warp struct {
	Compress []float64 // stack of active CompressT factors
	JumpT    int       // JumpT nesting depth; > 0 means outside virtual time
	Slip     int       // SlipStream nesting depth; > 0 means in slip mode
	SeedCtr  uint64    // ComputeFor's per-thread segment counter
}

// Scale divides a compute duration by every active CompressT factor.
func (w *Warp) Scale(d vclock.Duration) vclock.Duration {
	for _, f := range w.Compress {
		d = vclock.Duration(float64(d) / f)
	}
	return d
}
