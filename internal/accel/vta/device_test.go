package vta

import (
	"fmt"
	"slices"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// The differential test: random scenarios — GEMM shapes with and
// without bias and ReLU, K-chunked ones among them, one to three tasks
// rung back to back, several host latencies with and without a shared
// DMA link, driven by NextEvent or by fixed-step Advance — run on Device
// and on refDevice (ref_test.go), and must leave equal DMA logs,
// interrupts, statistics, NextEvent answers and output bytes.

// diffTask is one GEMM of a scenario, rung at time at.
type diffTask struct {
	at    vclock.Time
	gemm  GemmTask
	a, b  []int8
	bias  []int32
	descA mem.Addr
}

// diffScenario is one randomized differential case.
type diffScenario struct {
	lat   vclock.Duration
	link  bool // DMAs share one link (diffHost)
	irq   bool
	step  vclock.Duration // fixed Advance step; 0 drives by NextEvent
	tasks []diffTask
}

func (s diffScenario) String() string {
	str := fmt.Sprintf("lat=%v link=%v irq=%v step=%v", s.lat, s.link, s.irq, s.step)
	for _, t := range s.tasks {
		str += fmt.Sprintf(" [%dx%dx%d bias=%v relu=%v @%v]", t.gemm.M, t.gemm.N, t.gemm.K, t.gemm.Bias != 0, t.gemm.ReLU, t.at)
	}
	return str
}

// genScenario draws scenario seed. Every task owns a 4 MB window of
// memory for its operands, result, program and descriptor.
func genScenario(seed uint64) diffScenario {
	rng := xrand.New(seed).Derive("vta-diff")
	lats := []vclock.Duration{vclock.Nanosecond, 50 * vclock.Nanosecond, 100 * vclock.Nanosecond, 400 * vclock.Nanosecond, 2 * vclock.Microsecond}
	steps := []vclock.Duration{0, 0, 7 * vclock.Nanosecond, 100 * vclock.Nanosecond, vclock.Microsecond}
	s := diffScenario{
		lat:  lats[rng.Intn(len(lats))],
		link: rng.Intn(2) == 0,
		irq:  rng.Intn(2) == 0,
		step: steps[rng.Intn(len(steps))],
	}
	at, tasks := vclock.Time(0), 1+rng.Intn(3)
	for i := 0; i < tasks; i++ {
		m, n, k := 16*(1+rng.Intn(4)), 16*(1+rng.Intn(4)), []int{16, 48, 64, 200}[rng.Intn(4)]
		if rng.Intn(8) == 0 {
			m, n, k = 16, 512, 512 // K-chunked: 2*512*512 B exceed the weight SRAM
		}
		task := windowTask(i, rng.Uint64(), m, n, k, rng.Intn(2) == 0, rng.Intn(2) == 0)
		at += vclock.Time(rng.Intn(3000)) * vclock.Time(vclock.Nanosecond)
		task.at = at
		s.tasks = append(s.tasks, task)
	}
	return s
}

// windowTask is GEMM case seed, m x n x k, placed in task window i.
func windowTask(i int, seed uint64, m, n, k int, bias, relu bool) diffTask {
	base := mem.Addr(i+1) << 22
	g, a, b, bs := gemmCase(seed, m, n, k, bias, relu)
	g.A, g.B, g.C = base, base+0x10_0000, base+0x28_0000
	if g.Bias != 0 {
		g.Bias = base + 0x20_0000
	}
	return diffTask{gemm: g, a: a, b: b, bias: bs, descA: base + 0x3f_0000}
}

// stage writes s's operands, programs and descriptors into a fresh host.
func stage(t testing.TB, s diffScenario) *diffHost {
	h := &diffHost{Host: acceltest.Host{Mem: mem.New(0), Lat: s.lat}, link: s.link}
	for _, task := range s.tasks {
		if err := stageTask(h.Mem, task); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// stageTask writes task's operands, program and descriptor into m.
func stageTask(m *mem.Memory, task diffTask) error {
	StoreOperands(m, task.gemm, task.a, task.b, task.bias)
	prog, err := Compile(task.gemm)
	if err != nil {
		return err
	}
	progAddr := task.descA - 0x8_0000
	WriteProgram(m, progAddr, prog)
	db := EncodeDesc(Desc{Prog: progAddr, Count: uint32(len(prog))})
	m.WriteAt(task.descA, db[:])
	return nil
}

// drive wires dev to h and runs s's tasks on it to completion, advancing
// it to each doorbell's time first, as a host does. It asks NextEvent
// before every step and returns the answers.
func drive(t testing.TB, s diffScenario, h *diffHost, dev accel.Device) (events []vclock.Time) {
	dev.SetHost(h)
	if s.irq {
		dev.RegWrite(0, devkit.RegIRQEnable, 1)
	}
	next, now := 0, vclock.Time(0)
	ring := func() {
		at := s.tasks[next].at
		dev.Advance(at)
		dev.RegWrite(at, devkit.RegDoorbell, uint32(s.tasks[next].descA))
		next++
	}
	for i := 0; ; i++ {
		if i > 10_000_000 {
			t.Fatalf("%v: device did not quiesce", s)
		}
		at, ok := dev.NextEvent()
		events = append(events, at)
		pending := next < len(s.tasks)
		switch {
		case s.step == 0 && pending && (!ok || s.tasks[next].at <= at):
			ring()
		case s.step == 0 && ok:
			dev.Advance(at)
		case s.step == 0:
			return events
		case pending && s.tasks[next].at <= now.Add(s.step):
			ring()
		case !pending && dev.RegRead(now, devkit.RegBusy) == 0:
			return events
		default:
			now = now.Add(s.step)
			dev.Advance(now)
		}
	}
}

// diffHost is the test's accel.Host: an acceltest.Host that also logs
// each DMA's kind, address and size. With link set its DMAs share one
// link: a transfer starts when the link frees and holds it a nanosecond
// per 64 bytes, so the order of DMAs issued at one instant shows in
// their completion times.
type diffHost struct {
	acceltest.Host
	link bool
	free vclock.Time
	ops  []dmaOp
}

func (h *diffHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	h.ops = append(h.ops, dmaOp{kind: kind, addr: addr, size: size})
	if !h.link {
		return h.Host.DMA(at, kind, addr, size)
	}
	h.free = max(at, h.free).Add(vclock.Duration(size/64) * vclock.Nanosecond)
	done := h.free.Add(h.Lat)
	h.DMAs = append(h.DMAs, done)
	return done
}

// diffResult is what one device leaves behind.
type diffResult struct {
	host   *diffHost
	events []vclock.Time // NextEvent answers, in order
	stats  accel.DeviceStats
	out    [][]byte
}

// runScenario stages s on a fresh host and drives dev through it.
func runScenario(t *testing.T, s diffScenario, dev accel.Device) diffResult {
	t.Helper()
	r := diffResult{host: stage(t, s)}
	r.events = drive(t, s, r.host, dev)
	r.stats = dev.Stats()
	for _, task := range s.tasks {
		out := make([]byte, task.gemm.M*task.gemm.N)
		r.host.Mem.ReadAt(task.gemm.C, out)
		r.out = append(r.out, out)
	}
	return r
}

func TestDeviceMatchesReference(t *testing.T) {
	scenarios := 200
	if testing.Short() {
		scenarios = 30
	}
	steps := int64(0)
	for seed := 0; seed < scenarios; seed++ {
		s := genScenario(uint64(seed))
		got := runScenario(t, s, NewDevice(2*vclock.GHz))
		want := runScenario(t, s, newRefDevice(2*vclock.GHz))
		if got.stats != want.stats {
			t.Fatalf("seed %d %v: stats %+v, reference %+v", seed, s, got.stats, want.stats)
		}
		if !slices.Equal(got.host.DMAs, want.host.DMAs) {
			t.Fatalf("seed %d %v: DMA completions diverge:\n%v\nreference:\n%v", seed, s, got.host.DMAs, want.host.DMAs)
		}
		if !slices.EqualFunc(got.host.ops, want.host.ops, func(a, b dmaOp) bool { return a.kind == b.kind && a.addr == b.addr && a.size == b.size }) {
			t.Fatalf("seed %d %v: DMA sequences diverge", seed, s)
		}
		if !slices.Equal(got.host.IRQs, want.host.IRQs) {
			t.Fatalf("seed %d %v: IRQs %v, reference %v", seed, s, got.host.IRQs, want.host.IRQs)
		}
		if !slices.Equal(got.events, want.events) {
			t.Fatalf("seed %d %v: NextEvent answers diverge:\n%v\nreference:\n%v", seed, s, got.events, want.events)
		}
		for i := range s.tasks {
			if !slices.Equal(got.out[i], want.out[i]) {
				t.Fatalf("seed %d %v: task %d's result differs", seed, s, i)
			}
			if w := ReferenceGemm(s.tasks[i].gemm, s.tasks[i].a, s.tasks[i].b, s.tasks[i].bias); !slices.Equal(got.out[i], i8Bytes(w)) {
				t.Fatalf("seed %d %v: task %d's result is not the GEMM's", seed, s, i)
			}
		}
		if int(got.stats.TasksCompleted) != len(s.tasks) || (s.irq && len(got.host.IRQs) != len(s.tasks)) {
			t.Fatalf("seed %d %v: %d of %d tasks completed, %d IRQs", seed, s, got.stats.TasksCompleted, len(s.tasks), len(got.host.IRQs))
		}
		steps += got.stats.HostSteps
	}
	t.Logf("%d scenarios, %d ops agreed", scenarios, steps)
}

// TestTaskTableAcrossIdleGaps: three tasks, each rung after the one
// before it completed, leave the DSim model's task table holding only
// the in-flight task's entry, and each still computes its GEMM.
func TestTaskTableAcrossIdleGaps(t *testing.T) {
	s := diffScenario{lat: 100 * vclock.Nanosecond}
	for i := 0; i < 3; i++ {
		task := windowTask(i, uint64(i), 16, 32, 48, false, false)
		task.at = vclock.Time(i) * vclock.Time(100*vclock.Microsecond)
		s.tasks = append(s.tasks, task)
	}
	h := stage(t, s)
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	for i, task := range s.tasks {
		dev.Advance(task.at)
		if !dev.Idle() {
			t.Fatalf("device busy at task %d's doorbell", i)
		}
		dev.RegWrite(task.at, devkit.RegDoorbell, uint32(task.descA))
		if len(dev.tasks) != 1 {
			t.Fatalf("task %d rung on the idle device: the table holds %d entries, want 1", i, len(dev.tasks))
		}
		for at, ok := dev.NextEvent(); ok; at, ok = dev.NextEvent() {
			dev.Advance(at)
		}
	}
	for i, task := range s.tasks {
		out := make([]byte, task.gemm.M*task.gemm.N)
		h.Mem.ReadAt(task.gemm.C, out)
		if w := ReferenceGemm(task.gemm, task.a, task.b, task.bias); !slices.Equal(out, i8Bytes(w)) {
			t.Fatalf("task %d's result is not the GEMM's", i)
		}
	}
	if got := dev.Stats().TasksCompleted; got != 3 {
		t.Fatalf("%d tasks completed, want 3", got)
	}
}

// BenchmarkDevice runs one 64x64x64 GEMM task on a fresh device over a
// 1 ns host: the scheduling cost of a task's ops, on the net and on the
// hand-compiled reference, with the plan memoized.
func BenchmarkDevice(b *testing.B) {
	task, a, bm, bias := gemmCase(9, 64, 64, 64, true, true)
	s := diffScenario{lat: vclock.Nanosecond, tasks: []diffTask{{gemm: task, a: a, b: bm, bias: bias, descA: 0x3f_0000}}}
	for _, c := range []struct {
		name string
		new  func() accel.Device
	}{
		{"lpn", func() accel.Device { return NewDevice(2 * vclock.GHz) }},
		{"ref", func() accel.Device { return newRefDevice(2 * vclock.GHz) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := stage(b, s)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.DMAs, h.ops = h.DMAs[:0], h.ops[:0]
				drive(b, s, h, c.new())
			}
		})
	}
}

// TestRTLTimingOracle runs the kit conformance table over the RTL model
// with a timing oracle that reads the plan's op cycles and not the kit's
// units.
func TestRTLTimingOracle(t *testing.T) {
	acceltest.KitConformance(t, acceltest.KitModel{
		Name: "vta-rtl",
		New:  func() accel.Device { return NewRTLDevice(2 * vclock.GHz) },
		Stage: func(m *mem.Memory, i int) mem.Addr {
			task := windowTask(i, uint64(i), 32, 16, 48, true, true)
			if err := stageTask(m, task); err != nil {
				panic(err)
			}
			return task.descA
		},
		Alone: rtlAlone,
	})
}

// rtlAlone is when the RTL model completes the task at descAddr rung
// alone at time at on h. The clock first steps the cycle after the
// doorbell's, and no op starts before the instruction fetch's DMA
// completes. Each module runs its ops in program order: an op starts
// once its module is free and the tokens it pops were pushed, on the
// same cycle by a module the clock steps before it (load, compute,
// store), on an earlier one by a module after it. It holds its module
// for its cycles and, if it moves data, until its DMAs complete, and
// pushes its tokens when it ends. The task completes when its FINISH
// ends.
func rtlAlone(h *acceltest.Host, descAddr mem.Addr, at vclock.Time) vclock.Time {
	clk := 2 * vclock.GHz
	lat := clk.Cycles(h.Lat)
	var db [DescSize]byte
	h.ZeroCostRead(descAddr, db[:])
	plan, err := cachedPlan(h, decodeDesc(db[:]))
	if err != nil {
		panic(err)
	}
	mods := [3][]planOp{plan.loads, plan.computes, plan.stores}

	type queue struct{ from, to int }
	pushed := map[queue][]int64{} // the cycle each token may be popped
	popped := map[queue]int{}
	fetched := clk.Cycles(at.Add(h.Lat).Sub(0))
	first := clk.Cycles(at.Sub(0)) + 1
	free := [3]int64{first, first, first}
	var next [3]int
	var done int64
	for progress := true; progress; {
		progress = false
		for m, ops := range mods {
			if next[m] == len(ops) {
				continue
			}
			op := &ops[next[m]]
			var pops []queue
			if op.instr.PopPrev {
				pops = append(pops, queue{m - 1, m})
			}
			if op.instr.PopNext {
				pops = append(pops, queue{m + 1, m})
			}
			start := max(free[m], fetched)
			for _, q := range pops {
				if popped[q] == len(pushed[q]) {
					start = -1 // its token is not pushed yet
					break
				}
				start = max(start, pushed[q][popped[q]])
			}
			if start < 0 {
				continue
			}
			for _, q := range pops {
				popped[q]++
			}
			end := start + op.cycles
			if len(op.dmas) > 0 {
				end = max(end, start+lat)
			}
			if op.instr.PushPrev {
				pushed[queue{m, m - 1}] = append(pushed[queue{m, m - 1}], end+1)
			}
			if op.instr.PushNext {
				pushed[queue{m, m + 1}] = append(pushed[queue{m, m + 1}], end)
			}
			if op.finish {
				done = end
			}
			free[m], next[m], progress = end, next[m]+1, true
		}
	}
	return vclock.Time(clk.CyclesDur(done))
}
