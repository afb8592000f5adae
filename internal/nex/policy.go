package nex

import (
	"cmp"
	"slices"

	"nexsim/internal/coro"
	"nexsim/internal/vclock"
)

// selectFair is the default complementary scheduling policy of §A.1: a
// simplified CFS that picks the vcores least-serviced of the runnable
// threads to run in the coming epoch. A thread's service is its
// tstate.vruntime, and each pick is charged epochLen. selectFair
// reorders runnable in place and returns its first vcores entries.
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
func selectFair(epoch int64, runnable []*coro.Thread, vcores int, epochLen vclock.Duration) []*coro.Thread {
	// A thread that was not runnable in the previous epoch is treated as
	// freshly woken: reset to the fixed baseline (over-prioritizing it,
	// unlike CFS's min-alignment). A thread never seen has a zero record,
	// which is that baseline already.
	for _, th := range runnable {
		s := st(th)
		if s.lastRunnable < epoch-1 {
			s.vruntime = 0
		}
		s.lastRunnable = epoch
	}
	slices.SortFunc(runnable, func(a, b *coro.Thread) int {
		return cmp.Or(cmp.Compare(st(a).vruntime, st(b).vruntime), cmp.Compare(a.ID, b.ID))
	})
	picked := runnable[:min(len(runnable), vcores)]
	for _, th := range picked {
		st(th).vruntime += epochLen
	}
	return picked
}
