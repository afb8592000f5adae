package dsim

import (
	"bytes"
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// copyDev is a toy DSim accelerator: on doorbell it reads n bytes from
// src, XORs them with 0x5A, and writes them to dst. The LPN models
// load -> process -> store with a DMA-response dependency on the load,
// and replays each task's DMAs from its plan.
type copyDev struct {
	Base
	doneReg   uint32
	tasks     []copyTask // task tokens' attribute 0 indexes it
	inTasks   *lpn.Place
	loadResp  *lpn.Place
	storeDone *lpn.Place
}

func newCopyDev(h *acceltest.Host) *copyDev {
	d := &copyDev{}
	b := lpnlang.NewBuilder("copy", 1*vclock.GHz)
	d.inTasks = b.Queue("tasks", 0)
	d.loadResp = b.Queue("loadResp", 0)
	procQ := b.Queue("procQ", 0)
	d.storeDone = b.Queue("storeDone", 0)

	// Load: issue the input DMA; processing waits for its response.
	b.Stage("load", d.inTasks, nil, b.Cycles(4),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := d.taskOf(f)
			d.pass(d.loadResp, f, d.DMA(f.Time, mem.Read, t.src, t.n, nil))
		}))
	// Process: 2 cycles per byte.
	b.Stage("process", d.loadResp, procQ, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return 10 + 2*int64(d.taskOf(f).n)
	}))
	// Store: issue the output DMA; completion fires the done register.
	b.Stage("store", procQ, nil, b.Cycles(4),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := d.taskOf(f)
			d.pass(d.storeDone, f, d.DMA(f.Time, mem.Write, t.dst, t.n, t.out))
		}))
	b.Stage("finish", d.storeDone, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.doneReg = 1
			d.Complete(f.Time)
		}))
	d.Init("copydev", d, b.MustBuild())
	d.SetHost(h)
	d.RegWrite(0, devkit.RegIRQEnable, 1)
	return d
}

// Doorbell implements devkit.Model; the tests launch tasks through start,
// which takes the task a descriptor would name.
func (d *copyDev) Doorbell(at vclock.Time, desc mem.Addr) {}

// copyTask is one task and its plan: the output the store DMA carries.
type copyTask struct {
	src, dst mem.Addr
	n        int
	out      []byte
}

func (d *copyDev) taskOf(f *lpn.Firing) *copyTask { return &d.tasks[f.Tok(0).Attrs[0]] }

func (d *copyDev) pass(p *lpn.Place, f *lpn.Firing, comp vclock.Time) {
	d.Net.Inject(p, lpn.Token{TS: comp, Attrs: f.Tok(0).Attrs})
}

func (d *copyDev) start(at vclock.Time, t copyTask) {
	d.Start(at)
	d.doneReg = 0
	// Functional track first: compute the results into the task's plan.
	in := make([]byte, t.n)
	d.Host.ZeroCostRead(t.src, in)
	t.out = make([]byte, t.n)
	for i, v := range in {
		t.out[i] = v ^ 0x5A
	}
	d.tasks = append(d.tasks, t)
	// Then hand the task to the performance track, which replays its DMAs.
	d.Net.Inject(d.inTasks, lpn.Tok(at, int64(len(d.tasks)-1)))
}

func setup(lat vclock.Duration) (*acceltest.Host, *copyDev) {
	h := &acceltest.Host{Mem: mem.New(0), Lat: lat}
	return h, newCopyDev(h)
}

func TestFunctionalCorrectness(t *testing.T) {
	h, d := setup(100 * vclock.Nanosecond)
	src := mem.Addr(0x1000)
	dst := mem.Addr(0x2000)
	input := []byte("hello dsim")
	h.Mem.WriteAt(src, input)

	d.start(0, copyTask{src: src, dst: dst, n: len(input)})
	d.Advance(vclock.Never - 1)

	got := make([]byte, len(input))
	h.Mem.ReadAt(dst, got)
	want := make([]byte, len(input))
	for i, v := range input {
		want[i] = v ^ 0x5A
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output = %q, want %q", got, want)
	}
	if d.doneReg != 1 {
		t.Fatal("done register not set")
	}
}

func TestTimingDependsOnDMAResponse(t *testing.T) {
	// With a slower DMA, completion moves out by exactly the extra
	// response latency (x2: load + store).
	end := func(lat vclock.Duration) vclock.Time {
		h, d := setup(lat)
		h.Mem.WriteAt(0x1000, make([]byte, 100))
		d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 100})
		d.Advance(vclock.Never - 1)
		if len(h.IRQs) != 1 {
			t.Fatalf("irqs = %v", h.IRQs)
		}
		return h.IRQs[0]
	}
	fast := end(100 * vclock.Nanosecond)
	slow := end(400 * vclock.Nanosecond)
	if got := slow.Sub(fast); got != 600*vclock.Nanosecond {
		t.Fatalf("latency delta = %v, want 600ns (2 DMAs x 300ns)", got)
	}
}

func TestProcessingScalesWithSize(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.Mem.WriteAt(0x1000, make([]byte, 1000))
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 1000})
	d.Advance(vclock.Never - 1)
	big := h.IRQs[0]

	h2, d2 := setup(10 * vclock.Nanosecond)
	h2.Mem.WriteAt(0x1000, make([]byte, 100))
	d2.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 100})
	d2.Advance(vclock.Never - 1)
	small := h2.IRQs[0]

	// 2 cycles/byte at 1GHz: 900 extra bytes = 1800ns.
	if got := big.Sub(small); got != 1800*vclock.Nanosecond {
		t.Fatalf("size scaling = %v, want 1800ns", got)
	}
}

func TestPipelinedTasks(t *testing.T) {
	// Two tasks injected back to back overlap in the pipeline: total
	// time is less than 2x a single task.
	h, d := setup(50 * vclock.Nanosecond)
	h.Mem.WriteAt(0x1000, make([]byte, 200))
	single := func() vclock.Time {
		h2, d2 := setup(50 * vclock.Nanosecond)
		h2.Mem.WriteAt(0x1000, make([]byte, 200))
		d2.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 200})
		d2.Advance(vclock.Never - 1)
		return h2.IRQs[0]
	}()

	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 200})
	d.start(0, copyTask{src: 0x1000, dst: 0x3000, n: 200})
	d.Advance(vclock.Never - 1)
	if len(h.IRQs) != 2 {
		t.Fatalf("irqs = %d", len(h.IRQs))
	}
	both := h.IRQs[1]
	if both >= single*2 {
		t.Fatalf("no pipelining: 2 tasks took %v, single takes %v", both, single)
	}
}

func TestStatsTrackTasks(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.Mem.WriteAt(0x1000, make([]byte, 64))
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 64})
	d.Advance(vclock.Never - 1)
	s := d.Stats()
	if s.TasksStarted != 1 || s.TasksCompleted != 1 {
		t.Fatalf("tasks = %d/%d", s.TasksStarted, s.TasksCompleted)
	}
	if s.DMABytes != 128 {
		t.Fatalf("DMABytes = %d, want 128 (64 in + 64 out)", s.DMABytes)
	}
	if s.BusyTime <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestAdvanceClampsStaleTimestamps(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.Mem.WriteAt(0x1000, make([]byte, 8))
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 8})
	d.Advance(1000)
	before := d.Now()
	d.Advance(500) // stale
	if d.Now() != before {
		t.Fatal("stale Advance moved time backwards")
	}
}
