// Package nex implements the NEX native-execution orchestrator (paper
// §3): an epoch-based host engine that advances application threads in
// fixed virtual-time epochs (EBS scheduling), traps on accelerator
// interactions, and synchronizes accelerator simulators lazily, eagerly,
// or with hybrid periodic synchronization.
//
// Where the paper runs real x86 threads under a sched-ext scheduler with
// ptrace-intercepted MMIO, this implementation runs simulated threads
// (package coro) whose compute segments carry their measured native
// durations. The engine's cost structure matches the real system's:
// O(1) host work per thread-epoch and per trap, independent of the
// instruction count — which is why it is orders of magnitude faster than
// the cycle-level host in package cpu, exactly as in the paper.
//
// The accuracy mechanics are also the paper's:
//
//   - traps resolve at their exact virtual time, but the trapping thread
//     resumes only at the next epoch boundary (§3.2 "tick mode" reduces
//     this), so every interaction loses part of an epoch;
//   - threads woken by other threads (locks, queues, barriers) become
//     runnable only at the next epoch boundary (§6.6's cross-epoch
//     synchronization error, growing with epoch duration);
//   - compute durations carry a systematic calibration bias (the paper's
//     δ constant is obtained by calibration and imperfect) plus a
//     per-epoch pipeline-refill loss that grows relatively as epochs
//     shrink (§6.6's hypothesis for the 500 ns anomaly);
//   - underprovisioned physical cores add interference error (§6.6).
package nex

import (
	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/faults"
	"nexsim/internal/hostkit"
	"nexsim/internal/mem"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// SyncMode selects how accelerator simulators are synchronized (§3.1).
type SyncMode int

const (
	// Lazy advances accelerator simulators only when the application
	// interacts with them (default). Interrupts are not promptly
	// delivered; they surface at the next trap or idle period.
	Lazy SyncMode = iota
	// Eager advances accelerator simulators in lock-step at every epoch
	// boundary, like conventional full-stack simulators.
	Eager
	// Hybrid layers periodic synchronization (every SyncInterval) on top
	// of lazy synchronization; interrupts are delivered at interval
	// boundaries (§3.1, §6.7).
	Hybrid
)

func (m SyncMode) String() string {
	switch m {
	case Lazy:
		return "lazy"
	case Eager:
		return "eager"
	default:
		return "hybrid"
	}
}

// slipEpoch is the epoch duration inside SlipStream regions.
const slipEpoch = 20 * vclock.Millisecond

// Config parameterizes a NEX engine.
type Config struct {
	Clock vclock.Hz // simulated host core frequency

	// Epoch is the virtual-time epoch duration e (default 1µs, the
	// paper's sweet spot).
	Epoch vclock.Duration

	// VirtualCores is the simulated machine's core count (default 16).
	VirtualCores int

	// PhysicalCores models the host cores NEX may use (default =
	// VirtualCores). Underprovisioning (fewer physical than virtual)
	// degrades both speed and accuracy (§6.6).
	PhysicalCores int

	// Mode selects the synchronization mode; SyncInterval applies to
	// Hybrid (default 10µs).
	Mode         SyncMode
	SyncInterval vclock.Duration

	// TickMode makes task-buffer accesses non-trapping (§3.2): they are
	// charged in-epoch, and the next trapping MMIO access — the driver's
	// doorbell — is the batched synchronization point.
	TickMode bool

	// Seed drives the deterministic error model (calibration bias,
	// interference). Same seed, same program → identical results.
	Seed uint64

	// CalSigma is the standard deviation of the systematic calibration
	// bias (default 0.025). RefillLoss is the per-epoch virtual-time
	// accounting loss (default 12ns).
	CalSigma   float64
	RefillLoss vclock.Duration

	// Budget aborts the run after MaxSteps scheduler epochs or MaxWall
	// of host wall-clock time (zero fields = unlimited). An aborted
	// engine sets BudgetExceeded; the caller must Reap it.
	Budget hostkit.Budget

	// Faults is the per-run fault injector (nil = none). Device-bound
	// traps cross the device.dispatch site.
	Faults *faults.Injector

	Memory *mem.Memory
	Trace  *trace.Recorder
}

// Stats counts the engine work that determines NEX's real-world cost.
type Stats struct {
	Epochs       int64 // epochs in which application threads executed
	ThreadEpochs int64 // thread×epoch execution slots
	Rounds       int64 // physical-core rounds (≥ ThreadEpochs/PhysicalCores)
	Traps        int64 // MMIO and task-buffer traps
	Syncs        int64 // accelerator synchronization events
	IRQs         int64 // interrupts delivered
	IdleJumps    int64 // multi-epoch jumps while all threads were idle
}

// Real-system per-event costs for ModeledWall, fitted once to the
// paper's single-thread Table 4 row (its slowdown is dominated by
// per-epoch kernel crossings, §7).
const (
	// PerEpochCost is the scheduler's fixed cost per epoch (timer
	// interrupt + kernel crossing).
	PerEpochCost = 13600 * vclock.Nanosecond
	// PerThreadEpochCost is the per-core bookkeeping per thread-epoch.
	PerThreadEpochCost = 450 * vclock.Nanosecond
	// PerSyncCost is a periodic synchronization: pausing all threads and
	// exchanging messages with every accelerator simulator.
	PerSyncCost = 30 * vclock.Microsecond
)

// ModeledWall estimates the wall-clock time this run would take on the
// real NEX (whose epochs execute native code and cross the kernel),
// given the engine's measured event counts: fixed per-epoch scheduling,
// per-thread-epoch management, one epoch of native execution per
// physical-core round, and the periodic synchronization exchanges.
func (s Stats) ModeledWall(epoch vclock.Duration) vclock.Duration {
	return vclock.Duration(s.Epochs)*PerEpochCost +
		vclock.Duration(s.ThreadEpochs)*PerThreadEpochCost +
		vclock.Duration(s.Rounds)*epoch +
		vclock.Duration(s.Syncs)*PerSyncCost
}

// Engine is one NEX orchestrator instance.
type Engine struct {
	hostkit.Shell
	cfg Config

	// runnableBuf is runnableAt's reusable scratch slice; its contents
	// are only live until the next epoch's scan.
	runnableBuf []*coro.Thread

	now      vclock.Time // current epoch start
	slotEnd  vclock.Time // end of the running (or last, truncated) epoch: the wake rule's time
	truncate bool        // a SlipStream exit requested epoch truncation
	finishT  vclock.Time // virtual time of the last thread activity
	nextSync vclock.Time // next hybrid periodic synchronization boundary
	epochIdx int64
	calBias  float64 // derived from cfg.Seed and CalSigma in New
	interfer float64 // underprovisioning factor, derived from cfg in New

	// Prefix halt (snapshot.go): while haltArmed, the first device-bound
	// request freezes the engine mid-epoch into frame instead of being
	// processed.
	haltArmed bool
	frame     *haltFrame

	Stats Stats
}

// haltFrame freezes the position inside an epoch's slot loop at the
// moment a prefix halt fired: the selected threads, which slot halted,
// the epoch bounds, and the yielded-but-unprocessed request.
type haltFrame struct {
	selected []*coro.Thread
	idx      int
	start    vclock.Time
	end      vclock.Time
	req      coro.Request
}

// tstate is NEX's per-thread state. A thread is schedulable when its
// wakeAt is: parked and exited threads always carry wakeAt == Never, so
// the scans in loop.go test wakeAt alone.
type tstate struct {
	wakeAt  vclock.Time     // earliest epoch start the thread may run at
	deficit vclock.Duration // remaining virtual time of current segment
	hostkit.ThreadState
	cursor vclock.Time // thread-local virtual time (for Env.Now)

	// The complementary policy's record (selectFair): the service it
	// charged since the thread last became runnable, and the last epoch
	// in which it saw the thread runnable.
	vruntime     vclock.Duration
	lastRunnable int64
}

func st(t *coro.Thread) *tstate { return t.Data.(*tstate) }

// New builds a NEX engine.
func New(cfg Config) *Engine {
	if cfg.Clock == 0 {
		cfg.Clock = 3 * vclock.GHz
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1 * vclock.Microsecond
	}
	if cfg.VirtualCores <= 0 {
		cfg.VirtualCores = 16
	}
	if cfg.PhysicalCores <= 0 {
		cfg.PhysicalCores = cfg.VirtualCores
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 10 * vclock.Microsecond
	}
	if cfg.Memory == nil {
		cfg.Memory = mem.New(0x1000_0000)
	}
	if cfg.CalSigma == 0 {
		cfg.CalSigma = 0.025
	}
	if cfg.RefillLoss == 0 {
		cfg.RefillLoss = 12 * vclock.Nanosecond
	}
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	e := &Engine{cfg: cfg}
	// A raised interrupt waits for the next delivery boundary of the
	// sync mode (deliver). gettimeofday-style queries return the
	// thread's epoch-relative virtual time, matching the paper's
	// LD_PRELOAD interposition of clock_gettime (§3.2).
	e.Init(cfg.Memory, nil, hostkit.EnvConfig{
		Clock: cfg.Clock, LightTasks: cfg.TickMode,
		Now: func(th *coro.Thread) vclock.Time { return st(th).cursor },
		New: func(*coro.Thread) (any, *hostkit.ThreadState) {
			s := &tstate{}
			return s, &s.ThreadState
		},
		// EBS: a woken or new thread is runnable from the next epoch,
		// the cross-epoch synchronization skew (§3.3, §6.6).
		Wake: func(th *coro.Thread, at vclock.Time) { st(th).wakeAt = max(at, e.slotEnd) },
	}, cfg.Budget, cfg.Trace)
	// Systematic calibration bias: the δ calibration constant is close
	// but not perfect, so native-time accounting carries a small
	// engine-wide multiplicative error.
	e.calBias = rng.Derive("calibration").Jitter(cfg.CalSigma)
	// Underprovisioning interference: sharing physical cores disturbs
	// the microarchitectural state NEX cannot see.
	if cfg.PhysicalCores < cfg.VirtualCores {
		frac := 1 - float64(cfg.PhysicalCores)/float64(cfg.VirtualCores)
		e.interfer = 0.155 * frac * rng.Derive("interference").Jitter(0.2)
	}
	return e
}

// Run executes the program to completion (or until its budget is
// exceeded — check BudgetExceeded and Reap on abort) and returns the
// simulated time.
func (e *Engine) Run(prog app.Program) vclock.Duration {
	e.start(prog)
	e.loop()
	return e.simTime()
}

// start spawns prog's main thread, runnable at time zero (a new
// tstate's wakeAt), and anchors the watchdog.
func (e *Engine) start(prog app.Program) {
	e.Spawn("main", prog.Main)
	e.nextSync = vclock.Time(e.cfg.SyncInterval)
	e.StartWatchdog()
}

// simTime returns the virtual time of the last thread activity; the
// engine's `now` may have been rounded up to an epoch boundary past it.
func (e *Engine) simTime() vclock.Duration {
	if e.finishT > 0 {
		return vclock.Duration(e.finishT)
	}
	return vclock.Duration(e.now)
}

// epochLen returns the duration of the epoch the selected threads are
// about to run: SlipEpoch when every one of them is inside a SlipStream
// region, Epoch otherwise.
func (e *Engine) epochLen(selected []*coro.Thread) vclock.Duration {
	if len(selected) == 0 {
		return e.cfg.Epoch
	}
	for _, th := range selected {
		if st(th).Slip == 0 {
			return e.cfg.Epoch
		}
	}
	return slipEpoch
}

// roundUp returns the first epoch boundary at or after t.
func (e *Engine) roundUp(t vclock.Time) vclock.Time {
	ep := vclock.Time(e.cfg.Epoch)
	return (t + ep - 1) / ep * ep
}
