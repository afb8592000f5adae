package vta

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/dsim"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// An op token's attributes: the op's two dependency pops, which set the
// weights of its stage's dependency arcs, and where the op sits in the
// device's task plans.
const (
	attrPopPrev = iota
	attrPopNext
	attrTask
	attrOp
)

// Device is the DSim model of VTA. Its performance track is an LPN with
// one single-server stage per module (load, compute, store). Each stage
// takes one op token per firing from its op place, and takes a token
// from a dependency place (ld2cmp, cmp2ld, cmp2st, st2cmp) only when
// the op pops that queue. A firing is one op: it issues the op's DMAs at
// its start, lasts until the later of the op's cycles and those DMAs'
// completions, and pushes a completion-time token for each dependency
// the op pushes. The functionality track is the memoized plan
// (plan.go).
type Device struct {
	dsim.Base
	clk vclock.Hz

	opQ   [3]*lpn.Place
	tasks [][3][]planOp // the in-flight tasks' plans, indexed by attrTask
	cur   *planOp       // the firing op, for the OutFuncs and the Effect
	dep   [1]lpn.Token  // scratch for the dependency OutFuncs
}

// NewDevice builds the DSim VTA at clock clk.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{clk: clk}
	b := lpnlang.NewBuilder("vta", clk)
	for m, name := range [3]string{"loads", "computes", "stores"} {
		d.opQ[m] = b.Queue(name, 0)
	}
	ld2cmp, cmp2ld := b.Queue("ld2cmp", 0), b.Queue("cmp2ld", 0)
	cmp2st, st2cmp := b.Queue("cmp2st", 0), b.Queue("st2cmp", 0)

	// Registration order is the tie-break: at equal ready times the
	// lowest module goes first.
	b.Stage("load", d.opQ[0], nil, d.run(0),
		lpnlang.AlsoConsumeBy(cmp2ld, attrPopNext),
		lpnlang.AlsoProduce(ld2cmp, d.push(true)))
	b.Stage("compute", d.opQ[1], nil, d.run(1),
		lpnlang.AlsoConsumeBy(ld2cmp, attrPopPrev),
		lpnlang.AlsoConsumeBy(st2cmp, attrPopNext),
		lpnlang.AlsoProduce(cmp2ld, d.push(false)),
		lpnlang.AlsoProduce(cmp2st, d.push(true)),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			if d.cur.finish {
				d.Complete(done)
			}
		}))
	b.Stage("store", d.opQ[2], nil, d.run(2),
		lpnlang.AlsoConsumeBy(cmp2st, attrPopPrev),
		lpnlang.AlsoProduce(st2cmp, d.push(false)))

	d.Init("vta", d, b.MustBuild())
	return d
}

// run is module m's delay: the firing issues its op's DMAs at its start
// and lasts until the later of the op's cycles and their completions. A
// firing's delay runs before its outputs and its Effect, so it leaves
// the op in d.cur for them.
func (d *Device) run(m int) lpn.DelayFunc {
	return func(f *lpn.Firing) vclock.Duration {
		tok := &f.In[0][0]
		op := &d.tasks[tok.Attrs[attrTask]][m][tok.Attrs[attrOp]]
		d.cur = op
		finish := f.Time.Add(d.clk.CyclesDur(op.cycles))
		for _, dma := range op.dmas {
			finish = max(finish, d.DMA(f.Time, dma.kind, dma.addr, dma.size, dma.data))
		}
		return finish.Sub(f.Time)
	}
}

// push is an OutFunc depositing one completion-time dependency token
// when the firing op pushes to its next (or previous) module, and none
// otherwise.
func (d *Device) push(next bool) lpn.OutFunc {
	return func(f *lpn.Firing, done vclock.Time) []lpn.Token {
		i := &d.cur.instr
		if next && !i.PushNext || !next && !i.PushPrev {
			return nil
		}
		d.dep[0] = lpn.Tok(done)
		return d.dep[:]
	}
}

// Doorbell implements devkit.Model: the task's ops enter the op places
// as tokens available once the instruction fetch completes.
func (d *Device) Doorbell(at vclock.Time, descAddr mem.Addr) {
	if d.Idle() {
		// No op token names a task when the device is idle; truncate
		// in place so the table does not grow across tasks.
		d.tasks = d.tasks[:0]
	}
	plan, fetchDone := startTask(&d.Bank, at, descAddr)
	task := int64(len(d.tasks))
	mods := [3][]planOp{plan.loads, plan.computes, plan.stores}
	d.tasks = append(d.tasks, mods)
	for m, ops := range mods {
		for i := range ops {
			in := &ops[i].instr
			d.Net.Inject(d.opQ[m], lpn.Token{TS: fetchDone,
				Attrs: [4]int64{flag(in.PopPrev), flag(in.PopNext), task, int64(i)}})
		}
	}
}

// startTask is a doorbell on either model: the timed fetch of the
// descriptor and the instruction stream. It returns the memoized master
// plan, which the caller must not modify, and the fetch's completion,
// which gates every op of the task.
func startTask(b *devkit.Bank, at vclock.Time, descAddr mem.Addr) (*vtaPlan, vclock.Time) {
	b.Start(at)
	var descB [DescSize]byte
	b.Host.ZeroCostRead(descAddr, descB[:])
	desc := decodeDesc(descB[:])

	b.DMA(at, mem.Read, descAddr, DescSize, nil)
	fetchDone := b.DMA(at, mem.Read, desc.Prog, int(desc.Count)*InstrSize, nil)

	plan, err := cachedPlan(b.Host, desc)
	if err != nil {
		panic(b.Name() + ": " + err.Error())
	}
	return plan, fetchDone
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
