package dsim

import (
	"bytes"
	"testing"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// testHost is a minimal accel.Host: fixed-latency DMA over a real memory.
type testHost struct {
	mem  *mem.Memory
	lat  vclock.Duration
	dmas []vclock.Time // completion times, in issue order
	irqs []vclock.Time
}

func (h *testHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	done := at.Add(h.lat)
	h.dmas = append(h.dmas, done)
	return done
}
func (h *testHost) ZeroCostRead(addr mem.Addr, p []byte)    { h.mem.ReadAt(addr, p) }
func (h *testHost) ZeroCostWrite(addr mem.Addr, p []byte)   { h.mem.WriteAt(addr, p) }
func (h *testHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.mem.Sum(addr, n) }
func (h *testHost) RaiseIRQ(at vclock.Time, v int)          { h.irqs = append(h.irqs, at) }

// copyDev is a toy DSim accelerator: on doorbell it reads n bytes from
// src, XORs them with 0x5A, and writes them to dst. The LPN models
// load -> process -> store with a DMA-response dependency on the load.
type copyDev struct {
	Base
	doneReg   uint32
	inTasks   *lpn.Place
	loadResp  *lpn.Place
	storeDone *lpn.Place
}

func newCopyDev(h *testHost) *copyDev {
	d := &copyDev{}
	b := lpnlang.NewBuilder("copy", 1*vclock.GHz)
	d.inTasks = b.Queue("tasks", 0)
	d.loadResp = b.Queue("loadResp", 0)
	procQ := b.Queue("procQ", 0)
	d.storeDone = b.Queue("storeDone", 0)

	// Load: issue the input DMA; processing waits for its response.
	b.Stage("load", d.inTasks, nil, b.Cycles(4),
		lpnlang.Effect(d.EmitDMA("LOAD", d.loadResp)))
	// Process: 2 cycles per byte (attr 0 carries the byte count).
	b.Stage("process", d.loadResp, procQ, b.CyclesAttr(10, 2, 0))
	// Store: issue the output DMA; completion fires the done register.
	b.Stage("store", procQ, nil, b.Cycles(4),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.EmitDMA("STORE", d.storeDone)(f, done)
		}))
	b.Stage("finish", d.storeDone, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.doneReg = 1
			d.Complete(f.Time)
		}))
	d.initOn(h, "copydev", b.MustBuild())
	return d
}

// initOn wires the device to h with completion interrupts (vector 1) on.
func (d *copyDev) initOn(h *testHost, name string, net *lpn.Net) {
	d.Init(name, 1, d, net)
	d.SetHost(h)
	d.RegWrite(0, devkit.RegIRQEnable, 1)
}

// Doorbell implements devkit.Model; the tests launch tasks through start,
// which takes the task a descriptor would name.
func (d *copyDev) Doorbell(at vclock.Time, desc mem.Addr) {}

type copyTask struct {
	src, dst mem.Addr
	n        int
}

func (d *copyDev) start(at vclock.Time, t copyTask) {
	d.Start(at)
	d.doneReg = 0
	// Functional track first: compute results, record DMAs.
	rec := d.Recorder()
	in := rec.ReadDMA("LOAD", t.src, t.n)
	out := make([]byte, t.n)
	for i, v := range in {
		out[i] = v ^ 0x5A
	}
	rec.WriteDMA("STORE", t.dst, out)
	// Then hand the task to the performance track.
	d.Net.Inject(d.inTasks, lpn.Tok(at, int64(t.n)))
}

func setup(lat vclock.Duration) (*testHost, *copyDev) {
	h := &testHost{mem: mem.New(0), lat: lat}
	return h, newCopyDev(h)
}

func TestFunctionalCorrectness(t *testing.T) {
	h, d := setup(100 * vclock.Nanosecond)
	src := mem.Addr(0x1000)
	dst := mem.Addr(0x2000)
	input := []byte("hello dsim")
	h.mem.WriteAt(src, input)

	d.start(0, copyTask{src: src, dst: dst, n: len(input)})
	d.Advance(vclock.Never - 1)

	got := make([]byte, len(input))
	h.mem.ReadAt(dst, got)
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
		h.mem.WriteAt(0x1000, make([]byte, 100))
		d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 100})
		d.Advance(vclock.Never - 1)
		if len(h.irqs) != 1 {
			t.Fatalf("irqs = %v", h.irqs)
		}
		return h.irqs[0]
	}
	fast := end(100 * vclock.Nanosecond)
	slow := end(400 * vclock.Nanosecond)
	if got := slow.Sub(fast); got != 600*vclock.Nanosecond {
		t.Fatalf("latency delta = %v, want 600ns (2 DMAs x 300ns)", got)
	}
}

func TestProcessingScalesWithSize(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.mem.WriteAt(0x1000, make([]byte, 1000))
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 1000})
	d.Advance(vclock.Never - 1)
	big := h.irqs[0]

	h2, d2 := setup(10 * vclock.Nanosecond)
	h2.mem.WriteAt(0x1000, make([]byte, 100))
	d2.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 100})
	d2.Advance(vclock.Never - 1)
	small := h2.irqs[0]

	// 2 cycles/byte at 1GHz: 900 extra bytes = 1800ns.
	if got := big.Sub(small); got != 1800*vclock.Nanosecond {
		t.Fatalf("size scaling = %v, want 1800ns", got)
	}
}

func TestPipelinedTasks(t *testing.T) {
	// Two tasks injected back to back overlap in the pipeline: total
	// time is less than 2x a single task.
	h, d := setup(50 * vclock.Nanosecond)
	h.mem.WriteAt(0x1000, make([]byte, 200))
	single := func() vclock.Time {
		h2, d2 := setup(50 * vclock.Nanosecond)
		h2.mem.WriteAt(0x1000, make([]byte, 200))
		d2.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 200})
		d2.Advance(vclock.Never - 1)
		return h2.irqs[0]
	}()

	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 200})
	d.start(0, copyTask{src: 0x1000, dst: 0x3000, n: 200})
	d.Advance(vclock.Never - 1)
	if len(h.irqs) != 2 {
		t.Fatalf("irqs = %d", len(h.irqs))
	}
	both := h.irqs[1]
	if both >= single*2 {
		t.Fatalf("no pipelining: 2 tasks took %v, single takes %v", both, single)
	}
}

func TestStatsTrackTasks(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.mem.WriteAt(0x1000, make([]byte, 64))
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

func TestTrackMismatchPanics(t *testing.T) {
	// An LPN that emits a DMA the functional track never recorded must
	// fail loudly — the indistinguishability invariant is broken.
	h := &testHost{mem: mem.New(0)}
	d := &copyDev{}
	b := lpnlang.NewBuilder("bad", 1*vclock.GHz)
	in := b.Queue("in", 0)
	b.Stage("rogue", in, nil, b.Cycles(1), lpnlang.Effect(d.EmitDMA("GHOST", nil)))
	d.initOn(h, "bad", b.MustBuild())
	d.Net.Inject(in, lpn.Tok(0))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on track mismatch")
		}
	}()
	d.Advance(vclock.Never - 1)
}

func TestAdvanceClampsStaleTimestamps(t *testing.T) {
	h, d := setup(10 * vclock.Nanosecond)
	h.mem.WriteAt(0x1000, make([]byte, 8))
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 8})
	d.Advance(1000)
	before := d.Now()
	d.Advance(500) // stale
	if d.Now() != before {
		t.Fatal("stale Advance moved time backwards")
	}
}

func TestEmitDMABatch(t *testing.T) {
	// A stage that replays three recorded DMAs per firing; the response
	// token carries the last completion.
	h := &testHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	d := &copyDev{}
	b := lpnlang.NewBuilder("batch", 1*vclock.GHz)
	in := b.Queue("in", 0)
	resp := b.Queue("resp", 0)
	b.Stage("burst", in, nil, b.Cycles(1), lpnlang.Effect(d.EmitDMABatch("BURST", 3, resp)))
	d.initOn(h, "batch", b.MustBuild())

	rec := d.Recorder()
	h.mem.WriteAt(0x100, []byte{1, 2, 3, 4})
	rec.ReadDMA("BURST", 0x100, 4)
	rec.ReadDMA("BURST", 0x200, 4)
	rec.WriteDMA("BURST", 0x300, []byte{9, 9})

	d.Net.Inject(in, lpn.Tok(0))
	d.Advance(vclock.Never - 1)
	if len(h.dmas) != 3 {
		t.Fatalf("replayed %d DMAs, want 3", len(h.dmas))
	}
	if resp.Len() != 1 {
		t.Fatalf("resp tokens = %d", resp.Len())
	}
	// The write's payload landed.
	var out [2]byte
	h.mem.ReadAt(0x300, out[:])
	if out[0] != 9 || out[1] != 9 {
		t.Fatal("batched write payload missing")
	}
	if d.Pending("BURST") != 0 {
		t.Fatalf("pending = %d after drain", d.Pending("BURST"))
	}
}

func TestPendingCount(t *testing.T) {
	h := &testHost{mem: mem.New(0)}
	d := &copyDev{}
	b := lpnlang.NewBuilder("p", 1*vclock.GHz)
	in := b.Queue("in", 0)
	b.Stage("s", in, nil, b.Cycles(1), lpnlang.Effect(d.EmitDMA("T", nil)))
	d.initOn(h, "p", b.MustBuild())
	rec := d.Recorder()
	rec.ReadDMA("T", 0, 8)
	rec.ReadDMA("T", 8, 8)
	if d.Pending("T") != 2 {
		t.Fatalf("Pending = %d", d.Pending("T"))
	}
	d.Net.Inject(in, lpn.Tok(0))
	d.Advance(vclock.Never - 1)
	if d.Pending("T") != 1 {
		t.Fatalf("Pending after one replay = %d", d.Pending("T"))
	}
}
