package bench

import (
	"fmt"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/interconnect"
	"nexsim/internal/nex"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// The bench performs experiments.executeRun's steps itself, through
// exported functions only, so each step can carry a span and the
// assembled system can be asked for its CPU model afterwards. The
// translation from a normalized spec to a core.Config mirrors
// experiments.buildNormalized for the fields the bench's workloads set;
// every result produced this way is compared against the result of
// experiments.RunSpecs for the same spec, so a drift between the two
// shows as a digest mismatch.

var (
	stepHosts = map[string]core.HostKind{"reference": core.HostReference, "nex": core.HostNEX, "gem5": core.HostGem5}
	stepAccel = map[string]core.AccelKind{"dsim": core.AccelDSim, "rtl": core.AccelRTL}
	stepSync  = map[string]nex.SyncMode{"lazy": nex.Lazy, "eager": nex.Eager, "hybrid": nex.Hybrid}
	stepDMA   = map[string]core.DMALevel{"llc": core.DMALLC, "l2": core.DMAL2}
	stepFab   = map[string]interconnect.Config{"pcie": interconnect.PCIe400, "onchip": interconnect.OnChip4}
)

// configFor translates one normalized spec and its bench.
func configFor(n experiments.Spec, b workloads.Bench) (core.Config, error) {
	if n.MaxEpochs != 0 || len(n.Faults) != 0 {
		return core.Config{}, fmt.Errorf("bench: spec %s sets a budget or fault plan, which the bench never generates", n.Bench)
	}
	cfg := core.Config{
		Host: stepHosts[n.Host], Accel: stepAccel[n.Accel],
		Model: b.Model, Devices: n.Devices, Cores: n.Cores, Seed: n.Seed,
		Clock:         vclock.Hz(n.ClockMHz) * vclock.MHz,
		AccelClock:    vclock.Hz(n.AccelClockMHz) * vclock.MHz,
		DMATarget:     stepDMA[n.DMATarget],
		NEXNoTick:     n.NoTick,
		UseChannel:    n.UseChannel,
		IntraParallel: 1,
	}
	defFabric := "pcie"
	if b.Model == core.AccelProtoacc {
		defFabric = "onchip"
	}
	profile := stepFab[n.Fabric]
	lat := vclock.Duration(n.LinkLatencyNS) * vclock.Nanosecond
	if n.Fabric != defFabric || lat != profile.LinkLatency {
		fab := profile.WithLatency(lat)
		cfg.Fabric = &fab
	}
	cfg.NEX.Epoch = vclock.Duration(n.EpochNS) * vclock.Nanosecond
	cfg.NEX.VirtualCores = n.VirtualCores
	cfg.NEX.PhysicalCores = n.PhysicalCores
	cfg.NEX.Mode = stepSync[n.SyncMode]
	cfg.NEX.SyncInterval = vclock.Duration(n.SyncIntervalNS) * vclock.Nanosecond
	return cfg, nil
}

// prefixOf strips the accelerator-side fields, as the sweep planner
// does for the shared prefix of a family.
func prefixOf(cfg core.Config) core.Config {
	cfg.Accel = core.AccelDSim
	cfg.AccelClock = 0
	cfg.Fabric = nil
	cfg.DMATarget = core.DMALLC
	cfg.UseChannel = false
	return cfg
}

// cpuCounts are the gem5-style CPU model's counters after a run (all
// zero for hosts that execute no modelled instructions).
type cpuCounts struct {
	Instructions, Cycles, L1Hits, L1Misses int64
}

func (c *cpuCounts) add(o cpuCounts) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
}

// stepRun is the outcome of one spec run step by step.
type stepRun struct {
	ID     string
	Result core.Result
	CPU    cpuCounts
}

// assembled is a spec taken as far as a built system and its program.
type assembled struct {
	id  string
	cfg core.Config
	b   workloads.Bench
}

// assemble runs the steps up to the bench lookup: normalize (and
// address) the spec, find its bench, translate the configuration.
func assemble(tr *Tracer, parent int, raw experiments.Spec) (assembled, error) {
	sp := tr.Begin("experiments.normalize", parent, raw.Bench)
	n, err := raw.Normalized()
	var id string
	if err == nil {
		id, err = n.ID()
	}
	tr.End(sp)
	if err != nil {
		return assembled{}, err
	}
	sp = tr.Begin("workloads.byname", parent, id)
	b, err := workloads.ByName(n.Bench)
	tr.End(sp)
	if err != nil {
		return assembled{}, err
	}
	cfg, err := configFor(n, b)
	return assembled{id: id, cfg: cfg, b: b}, err
}

// runSteps executes one spec straight through, one span per step.
func runSteps(tr *Tracer, parent int, raw experiments.Spec) (stepRun, error) {
	root := tr.Begin("spec", parent, raw.Bench)
	defer tr.End(root)
	a, err := assemble(tr, root, raw)
	if err != nil {
		return stepRun{}, err
	}
	sp := tr.Begin("core.build", root, a.id)
	sys := core.Build(a.cfg)
	tr.End(sp)
	sp = tr.Begin("workloads.program", root, a.id)
	prog := a.b.Build(&sys.Ctx)
	tr.End(sp)
	sp = tr.Begin("core.run", root, a.id)
	res, err := sys.TryRun(prog)
	tr.End(sp)
	out := stepRun{ID: a.id, Result: res}
	if m := sys.CPUModel(); m != nil {
		out.CPU = cpuCounts{m.Instructions, m.Cycles, m.L1().Hits, m.L1().Misses}
	}
	sp = tr.Begin("core.release", root, a.id)
	sys.Release()
	tr.End(sp)
	return out, err
}

// forkTimes are the wall times of the checkpoint steps of one family.
type forkTimes struct {
	PrefixRunMS, EncodeMS, RestoreMS, ResumeMS float64
	BlobKB                                     float64
	Forks                                      int
}

// runFamilySteps executes one sweep family the way the planner does
// with checkpoints on — run the shared prefix once, snapshot it, fork
// every member from the blob — with one span per step. A family whose
// program finishes before touching a device has no prefix to share and
// runs straight.
func runFamilySteps(tr *Tracer, parent int, fam SweepFamily) ([]stepRun, forkTimes, error) {
	var ft forkTimes
	root := tr.Begin("family", parent, fam.Name)
	defer tr.End(root)
	first, err := assemble(tr, root, fam.Specs[0])
	if err != nil {
		return nil, ft, err
	}
	sp := tr.Begin("core.build", root, fam.Name)
	psys := core.Build(prefixOf(first.cfg))
	tr.End(sp)
	sp = tr.Begin("workloads.program", root, fam.Name)
	pprog := first.b.Build(&psys.Ctx)
	tr.End(sp)
	sp = tr.Begin("checkpoint.prefix_run", root, fam.Name)
	t := now()
	_, completed := psys.RunPrefix(pprog)
	ft.PrefixRunMS = since(t)
	tr.End(sp)
	var blob []byte
	if !completed {
		sp = tr.Begin("checkpoint.encode", root, fam.Name)
		t = now()
		blob, err = psys.Checkpoint()
		ft.EncodeMS = since(t)
		tr.End(sp)
	}
	// The halted prefix system still has its program's threads parked.
	psys.Reap()
	psys.Release()
	if err != nil {
		return nil, ft, fmt.Errorf("family %s: snapshot: %w", fam.Name, err)
	}
	ft.BlobKB = float64(len(blob)) / 1024

	var runs []stepRun
	for _, raw := range fam.Specs {
		if blob == nil {
			r, err := runSteps(tr, root, raw)
			if err != nil {
				return nil, ft, err
			}
			runs = append(runs, r)
			continue
		}
		mroot := tr.Begin("spec", root, raw.Bench)
		a, err := assemble(tr, mroot, raw)
		if err != nil {
			tr.End(mroot)
			return nil, ft, err
		}
		sp = tr.Begin("core.build", mroot, a.id)
		sys := core.Build(a.cfg)
		tr.End(sp)
		sp = tr.Begin("workloads.program", mroot, a.id)
		prog := a.b.Build(&sys.Ctx)
		tr.End(sp)
		sp = tr.Begin("checkpoint.restore", mroot, a.id)
		t = now()
		err = sys.RestoreCheckpoint(blob, prog)
		ft.RestoreMS += since(t)
		tr.End(sp)
		if err != nil {
			sys.Release()
			tr.End(mroot)
			return nil, ft, fmt.Errorf("family %s: restore %s: %w", fam.Name, a.id, err)
		}
		sp = tr.Begin("core.resume", mroot, a.id)
		t = now()
		res := sys.ResumeRun()
		ft.ResumeMS += since(t)
		tr.End(sp)
		sp = tr.Begin("core.release", mroot, a.id)
		sys.Release()
		tr.End(sp)
		tr.End(mroot)
		ft.Forks++
		runs = append(runs, stepRun{ID: a.id, Result: res})
	}
	return runs, ft, nil
}
