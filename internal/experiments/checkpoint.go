package experiments

import (
	"fmt"
	"time"

	"nexsim/internal/checkpoint"
	"nexsim/internal/core"
	"nexsim/internal/faults"
	"nexsim/internal/sweep"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// defaultHostClock mirrors core.Build's host clock default.
const defaultHostClock = 3 * vclock.GHz

// Checkpointed sweep execution (prefix sharing): the points of a design
// sweep differ only in accelerator-side ("late-binding") parameters —
// accelerator engine, clock, fabric profile and latency, DMA level,
// channel integration — while the host-side prefix up to the first
// device interaction is identical. With checkpoints enabled, the
// planner groups runs by their normalized prefix, executes each group's
// prefix once, fingerprints the engine at the divergence point, and
// forks every group member from the blob: each re-runs the prefix on its
// own system and checks it against the blob. Forked runs are
// byte-identical to straight-through runs (the engine-level differential
// tests pin this), so enabling checkpoints changes wall-clock time only.

// checkpointsOn gates the prefix-sharing planner. No command or server
// turns it on: it is a library mechanism kept for the sweep planner the
// benchmark measures (DESIGN.md §7). Like parallelism, it is set before
// experiments run, never while one is running.
var checkpointsOn = false

// ckptStore caches prefix blobs across runs and sweeps,
// content-addressed by the normalized prefix key. 256MB bounds the
// resident blobs; least-recently-forked prefixes evict first.
var ckptStore = checkpoint.NewStore(256 << 20)

// SetCheckpoints enables or disables checkpointed sweep execution. Not
// safe to call while an experiment is running.
func SetCheckpoints(on bool) { checkpointsOn = on }

// CheckpointsEnabled reports whether the prefix-sharing planner is on.
func CheckpointsEnabled() bool { return checkpointsOn }

// CheckpointStats reports the prefix store's hit/miss/eviction counters.
func CheckpointStats() checkpoint.StoreStats { return ckptStore.Stats() }

// ResetCheckpointStore drops every cached prefix (tests).
func ResetCheckpointStore() { ckptStore = checkpoint.NewStore(256 << 20) }

// chaosSleep implements an OpDelay fault at the host-side pool-worker
// site, where there is no virtual clock to shift: a wall-clock stall of
// the fault's DelayPS, clamped to 50ms so a chaotic spec cannot wedge a
// worker. The stall never feeds simulation state — simulated results
// are byte-identical with and without it.
func chaosSleep(delayPS int64) {
	d := time.Duration(delayPS/1000) * time.Nanosecond
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 0 {
		time.Sleep(d) //simlint:allow nondet-time bounded chaos stall, never simulation state
	}
}

// prefixShareable reports whether a run can fork from a shared prefix:
// a NEX host driving at least one accelerator, without trace recording
// (core refuses to checkpoint a traced system).
func prefixShareable(b workloads.Bench, cfg core.Config) bool {
	return cfg.Host == core.HostNEX && cfg.Trace == nil &&
		cfg.Model != core.AccelNone && b.Model != core.AccelNone
}

// prefixConfig strips the late-binding fields off a run's configuration,
// leaving the host-side prefix configuration every group member shares.
// Everything cleared here is unobservable before the first device
// interaction: the accelerator engine and clock only shape device
// behavior, and the fabric/DMA/channel attachment is only traversed by
// device interactions.
func prefixConfig(cfg core.Config) core.Config {
	cfg.Accel = core.AccelDSim
	cfg.AccelClock = 0
	cfg.Fabric = nil
	cfg.DMATarget = core.DMALLC
	cfg.UseChannel = false
	cfg.IOTLB = nil
	// The prefix run itself is never faulted or budgeted: the blob is
	// shared across specs (and attempts) whose plans differ, so its
	// content must not depend on them. No engine fault site can fire
	// before the first device interaction anyway — injection happens in
	// the forked continuation.
	cfg.Budget = core.Budget{}
	cfg.Faults = nil
	return cfg
}

// prefixKey is the content key of a run's shared prefix: the bench plus
// every host-side parameter, with core.Build's defaulting applied so
// implicit and explicit spellings share one key.
func prefixKey(bench string, cfg core.Config) string {
	clock := cfg.Clock
	if clock == 0 {
		clock = defaultHostClock
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 16
	}
	devices := cfg.Devices
	if cfg.Model != core.AccelNone && devices <= 0 {
		devices = 1
	}
	return fmt.Sprintf("%s|%v|%s|%d|%d|%d|%d|%t|%d|%d|%d|%d|%d",
		bench, cfg.Host, cfg.Model, devices, cores, cfg.Seed, clock,
		cfg.NEXNoTick, cfg.NEX.Epoch, cfg.NEX.VirtualCores,
		cfg.NEX.PhysicalCores, cfg.NEX.Mode, cfg.NEX.SyncInterval)
}

// warmPrefix runs (or joins) the group's shared prefix and stores its
// checkpoint blob; a nil blob means the program completed without
// touching a device (cached as a negative entry so the group falls back
// to straight runs without re-probing). A failure is not fatal: it is
// not cached, and the group's runs fall back to straight runs.
func warmPrefix(b workloads.Bench, cfg core.Config) {
	key := prefixKey(b.Name, cfg)
	_, _, _ = ckptStore.GetOrCompute(key, func() ([]byte, error) {
		psys := core.Build(prefixConfig(cfg))
		defer psys.Release()
		if _, completed := psys.RunPrefix(b.Build(&psys.Ctx)); completed {
			return nil, nil
		}
		// The prefix halted mid-program, so its threads are parked, not
		// finished: reap them once the blob is taken, or every cold
		// prefix leaks their goroutines and the heap they pin.
		defer psys.Reap()
		return psys.Checkpoint()
	})
}

// warmPrefixes is the sweep planner's warm phase: it runs every
// multi-member group's shared prefix first (one blob per group,
// fanned across the worker pool), so the per-spec jobs all fork from warm
// blobs instead of racing to produce them.
func warmPrefixes(pool *sweep.Executor, norm []Spec) {
	var leaders []Spec
	for _, g := range PrefixGroups(norm) {
		if len(g) >= 2 {
			leaders = append(leaders, norm[g[0]])
		}
	}
	sweep.Run(pool, len(leaders), func(i int) {
		if b, cfg, err := Lower(leaders[i]); err == nil {
			warmPrefix(b, cfg)
		}
	})
}

// executeRun is the chokepoint every experiment simulation goes
// through: fork from the shared prefix when one is already cached, run
// straight through otherwise. Prefixes are only *computed* by the sweep
// planner's warm phase (RunSpecs) for groups that actually share one —
// a solo run never pays for a prefix nobody will fork. A restore
// failure (a re-run prefix that halts elsewhere than the cached blob
// says) falls back to a straight run — correctness never depends on the
// cache.
//
// It is also the fault boundary: an OpFail fault firing at an engine
// site panics with its *faults.Injected, which the deferred recover
// here converts into an error after reaping the engine's parked
// threads (no goroutine leaks, under -race). A fault-free, unbudgeted
// configuration takes the exact code path it always did and cannot
// return an error.
func executeRun(b workloads.Bench, cfg core.Config) (res core.Result, err error) {
	var sys *core.System
	if cfg.Faults != nil {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if !faults.IsInjected(r) {
				panic(r)
			}
			if sys != nil {
				sys.Reap()
				sys.Release()
			}
			res, err = core.Result{}, fmt.Errorf("experiments: run aborted by %w", r.(error))
		}()
		if inj := cfg.Faults.Hit(faults.SitePoolWorker); inj != nil {
			if inj.Op == faults.OpFail {
				return core.Result{}, fmt.Errorf("experiments: %w", inj)
			}
			chaosSleep(inj.Delay)
		}
	}
	if checkpointsOn && prefixShareable(b, cfg) {
		if blob, ok := ckptStore.Get(prefixKey(b.Name, cfg)); ok && blob != nil {
			sys = core.Build(cfg)
			prog := b.Build(&sys.Ctx)
			if rerr := sys.RestoreCheckpoint(blob, prog); rerr == nil {
				return finishRun(sys, sys.TryResume)
			}
			sys.Release() // fall back to a straight run on a fresh build
		}
	}
	sys = core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	return finishRun(sys, func() (core.Result, error) { return sys.TryRun(prog) })
}

// finishRun runs a built system to its end (straight or resumed) and
// releases it.
func finishRun(sys *core.System, run func() (core.Result, error)) (core.Result, error) {
	r, err := run()
	sys.Release()
	return r, err
}

// PrefixGroups partitions normalized specs into groups that share one
// simulation prefix (the sweep planner's grouping step). Non-shareable
// specs each form their own singleton group. Group order follows first
// appearance; indices within a group stay in spec order.
func PrefixGroups(norm []Spec) [][]int {
	var order []string
	groups := make(map[string][]int)
	for i, n := range norm {
		key := fmt.Sprintf("solo|%d", i)
		if b, cfg, err := Lower(n); err == nil && prefixShareable(b, cfg) {
			key = prefixKey(b.Name, cfg)
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	out := make([][]int, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}
