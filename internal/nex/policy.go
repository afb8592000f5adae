package nex

import (
	"sort"

	"nexsim/internal/coro"
	"nexsim/internal/vclock"
)

// FairPolicy is the default complementary scheduling policy of §A.1: a
// simplified CFS that tracks per-task vruntime and runs the
// least-serviced threads each epoch.
//
// It deliberately simplifies CFS the way the paper describes — and
// therefore diverges from the reference engine's CFS in the same ways:
//
//   - a task resuming from a non-runnable state has its vruntime reset to
//     a fixed baseline (zero) rather than aligned with the current
//     minimum, and
//   - the run length is always one epoch (the minimum granularity),
//     rather than derived from the number of runnable threads.
//
// These differences are what make barrier-heavy workloads (SP, LU)
// diverge from native Linux in §6.6/§A.1.
type FairPolicy struct {
	vr       map[int]vclock.Duration // thread id -> vruntime
	lastSeen map[int]int64           // thread id -> last epoch observed runnable
	epoch    vclock.Duration
}

// NewFairPolicy returns the policy of an engine whose epochs last
// epoch: each selection charges the selected threads one epoch of
// service.
func NewFairPolicy(epoch vclock.Duration) *FairPolicy {
	return &FairPolicy{
		vr:       make(map[int]vclock.Duration),
		lastSeen: make(map[int]int64),
		epoch:    epoch,
	}
}

// Select returns up to vcores threads from runnable (which is in
// thread-creation order) to execute in the coming epoch.
func (p *FairPolicy) Select(epoch int64, runnable []*coro.Thread, vcores int) []*coro.Thread {
	// A thread that was not runnable in the previous epoch is treated as
	// freshly woken: reset to the fixed baseline (over-prioritizing it,
	// unlike CFS's min-alignment).
	for _, th := range runnable {
		if last, ok := p.lastSeen[th.ID]; !ok || last < epoch-1 {
			p.vr[th.ID] = 0
		}
		p.lastSeen[th.ID] = epoch
	}
	picked := make([]*coro.Thread, len(runnable))
	copy(picked, runnable)
	sort.SliceStable(picked, func(i, j int) bool {
		vi, vj := p.vr[picked[i].ID], p.vr[picked[j].ID]
		if vi != vj {
			return vi < vj
		}
		return picked[i].ID < picked[j].ID
	})
	if len(picked) > vcores {
		picked = picked[:vcores]
	}
	// Charge one epoch of service to the selected threads.
	for _, th := range picked {
		p.vr[th.ID] += p.epoch
	}
	return picked
}
