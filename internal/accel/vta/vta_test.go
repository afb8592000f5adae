package vta

import (
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

type devHost struct {
	mem  *mem.Memory
	lat  vclock.Duration
	dmas int
	irqs []vclock.Time
}

func (h *devHost) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	h.dmas++
	return at.Add(h.lat)
}
func (h *devHost) ZeroCostRead(addr mem.Addr, p []byte)    { h.mem.ReadAt(addr, p) }
func (h *devHost) ZeroCostWrite(addr mem.Addr, p []byte)   { h.mem.WriteAt(addr, p) }
func (h *devHost) ZeroCostSum(addr mem.Addr, n int) uint64 { return h.mem.Sum(addr, n) }
func (h *devHost) RaiseIRQ(at vclock.Time, v int)          { h.irqs = append(h.irqs, at) }

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpLoad, Buf: BufWeight, SRAMBase: 1024, DRAM: 0xdead00, Rows: 64, Cols: 576, Stride: 600, PopNext: true},
		{Op: OpGemm, M: 16, N: 64, K: 576, InBase: 5, WgtBase: 7, AccBase: 9, ResetAcc: true, PopPrev: true, PushPrev: true},
		{Op: OpAlu, Alu: AluShr, UseImm: true, Imm: 7, AccBase: 3, Len: 1024, PushNext: true},
		{Op: OpAlu, Alu: AluAdd, UseImm: false, SrcAcc: 512, AccBase: 0, Len: 256},
		{Op: OpStore, Buf: BufAcc, SRAMBase: 0, DRAM: 0xbeef00, Rows: 16, Cols: 64, Shift: 6, PopPrev: true, PushPrev: true},
		{Op: OpFinish},
	}
	for i, c := range cases {
		enc := c.Encode()
		dec, err := DecodeInstr(enc[:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if dec != c {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, dec, c)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeInstr(make([]byte, 10)); err == nil {
		t.Fatal("short instruction accepted")
	}
	bad := make([]byte, InstrSize)
	bad[0] = 99
	if _, err := DecodeInstr(bad); err == nil {
		t.Fatal("bad opcode accepted")
	}
}

func randI8(rng *xrand.Stream, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out
}

// runGemm stages the operands, then compiles and runs a GEMM on the given
// device, returning C.
func runGemm(t *testing.T, dev accel.Device, h *devHost, task GemmTask, a, b []int8, bias []int32) []int8 {
	t.Helper()
	StoreOperands(h.mem, task, a, b, bias)
	return launchGemm(t, dev, h, task)
}

// launchGemm compiles and runs a GEMM over whatever operands are staged
// in h.mem, on a device that has run nothing yet, and returns C.
func launchGemm(t *testing.T, dev accel.Device, h *devHost, task GemmTask) []int8 {
	t.Helper()
	prog, err := Compile(task)
	if err != nil {
		t.Fatal(err)
	}
	progAddr := mem.Addr(0x40_0000)
	WriteProgram(h.mem, progAddr, prog)
	descAddr := mem.Addr(0x1000)
	db := EncodeDesc(Desc{Prog: progAddr, Count: uint32(len(prog))})
	h.mem.WriteAt(descAddr, db[:])

	dev.RegWrite(0, devkit.RegDoorbell, uint32(descAddr))
	for i := 0; ; i++ {
		at, ok := dev.NextEvent()
		if !ok {
			break
		}
		if i > 50_000_000 {
			t.Fatal("device did not quiesce")
		}
		dev.Advance(at)
	}
	if got := dev.RegRead(vclock.Time(1)<<40, devkit.RegStatus); got != 1 {
		t.Fatalf("status = %d", got)
	}
	out := make([]byte, task.M*task.N)
	h.mem.ReadAt(task.C, out)
	res := make([]int8, len(out))
	for i, v := range out {
		res[i] = int8(v)
	}
	return res
}

func gemmCase(seed uint64, m, n, k int, bias, relu bool) (GemmTask, []int8, []int8, []int32) {
	rng := xrand.New(seed)
	task := GemmTask{
		M: m, N: n, K: k,
		A: 0x10_0000, B: 0x20_0000, C: 0x30_0000,
		Shift: 6, ReLU: relu,
	}
	var bv []int32
	if bias {
		task.Bias = 0x28_0000
		bv = make([]int32, n)
		for i := range bv {
			bv[i] = int32(rng.Intn(2048) - 1024)
		}
	}
	a := randI8(rng.Derive("a"), m*k)
	b := randI8(rng.Derive("b"), n*k)
	return task, a, b, bv
}

func TestDSimGemmMatchesReference(t *testing.T) {
	task, a, b, bias := gemmCase(1, 64, 32, 48, false, true)
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	got := runGemm(t, dev, h, task, a, b, bias)
	want := ReferenceGemm(task, a, b, bias)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDSimGemmWithBias(t *testing.T) {
	task, a, b, bias := gemmCase(2, 32, 24, 40, true, false)
	h := &devHost{mem: mem.New(0), lat: 50 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	got := runGemm(t, dev, h, task, a, b, bias)
	want := ReferenceGemm(task, a, b, bias)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRTLGemmMatchesReference(t *testing.T) {
	task, a, b, bias := gemmCase(3, 64, 32, 48, true, true)
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	got := runGemm(t, dev, h, task, a, b, bias)
	want := ReferenceGemm(task, a, b, bias)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDSimAndRTLTimingAgree(t *testing.T) {
	task, a, b, bias := gemmCase(4, 128, 32, 64, false, true)
	run := func(dev accel.Device, h *devHost) vclock.Duration {
		runGemm(t, dev, h, task, a, b, bias)
		return dev.Stats().BusyTime
	}
	h1 := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	d1 := NewDevice(2 * vclock.GHz)
	d1.SetHost(h1)
	dsimBusy := run(d1, h1)

	h2 := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	d2 := NewRTLDevice(2 * vclock.GHz)
	d2.SetHost(h2)
	rtlBusy := run(d2, h2)

	if h1.dmas != h2.dmas {
		t.Fatalf("DMA counts differ: %d vs %d", h1.dmas, h2.dmas)
	}
	ratio := float64(dsimBusy) / float64(rtlBusy)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("busy times diverge: dsim %v rtl %v", dsimBusy, rtlBusy)
	}
}

func TestPipelineOverlapsLoadAndCompute(t *testing.T) {
	// With many tiles, total time should be much less than the sum of
	// serialized module times (load/compute/store overlap).
	task, a, b, bias := gemmCase(5, 256, 32, 64, false, false)
	h := &devHost{mem: mem.New(0), lat: 200 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	runGemm(t, dev, h, task, a, b, bias)
	busy := dev.Stats().BusyTime

	// Serial estimate: every op back to back, including each memory
	// instruction's DMA round trip.
	prog, _ := Compile(task)
	var serialCycles int64
	serial := vclock.Duration(0)
	for i := range prog {
		serialCycles += instrCycles(&prog[i])
		if prog[i].Op == OpLoad || prog[i].Op == OpStore {
			serial += 200 * vclock.Nanosecond
		}
	}
	serial += (2 * vclock.GHz).CyclesDur(serialCycles)
	if busy >= serial {
		t.Fatalf("no pipelining: busy %v >= serial %v", busy, serial)
	}
}

func TestCompileRejectsBadShapes(t *testing.T) {
	if _, err := Compile(GemmTask{M: 10, N: 16, K: 16}); err == nil {
		t.Fatal("non-multiple M accepted")
	}
	if _, err := Compile(GemmTask{M: 16, N: 1 << 12, K: 1 << 10}); err == nil {
		t.Fatal("oversized weights accepted")
	}
	if _, err := Compile(GemmTask{}); err == nil {
		t.Fatal("empty task accepted")
	}
}

// TestCompileSizesProgramExactly: both schedules know their instruction
// count up front and allocate the program once.
func TestCompileSizesProgramExactly(t *testing.T) {
	for _, k := range []int{48, 4096} { // resident weights, K-streaming
		for _, m := range []int{16, 64} {
			for opts := 0; opts < 8; opts++ {
				task := GemmTask{M: m, N: 64, K: k, A: 0x10_0000, B: 0x20_0000, C: 0x30_0000,
					Shift: uint8(opts & 1), ReLU: opts&2 != 0}
				if opts&4 != 0 {
					task.Bias = 0x28_0000
				}
				prog, err := Compile(task)
				if err != nil {
					t.Fatal(err)
				}
				if len(prog) != cap(prog) {
					t.Errorf("%+v: %d instructions in a program sized for %d", task, len(prog), cap(prog))
				}
			}
		}
	}
}

func TestCoreAluOps(t *testing.T) {
	c := NewCore()
	for i := 0; i < 8; i++ {
		c.Acc[i] = int32(i*16 - 64)
	}
	if err := c.Alu(&Instr{Op: OpAlu, Alu: AluMax, UseImm: true, Imm: 0, Len: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if c.Acc[i] != 0 {
			t.Fatalf("relu failed at %d: %d", i, c.Acc[i])
		}
	}
	if c.Acc[7] != 48 {
		t.Fatalf("relu clobbered positive: %d", c.Acc[7])
	}
	// Pairwise add.
	c.Acc[100], c.Acc[101] = 5, 6
	c.Acc[0], c.Acc[1] = 1, 2
	if err := c.Alu(&Instr{Op: OpAlu, Alu: AluAdd, SrcAcc: 100, AccBase: 0, Len: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Acc[0] != 6 || c.Acc[1] != 8 {
		t.Fatalf("add: %d %d", c.Acc[0], c.Acc[1])
	}
}

func TestChunkedGemmMatchesReference(t *testing.T) {
	// K=4096 with N=64 exceeds the double-buffered weight SRAM
	// (2*64*4096 = 512KB > 256KB), forcing the K-streaming schedule.
	task, a, b, bias := gemmCase(7, 48, 64, 4096, false, true)
	prog, err := Compile(task)
	if err != nil {
		t.Fatal(err)
	}
	nLoads := 0
	for _, ins := range prog {
		if ins.Op == OpLoad && ins.Buf == BufWeight {
			nLoads++
		}
	}
	if nLoads < 2 {
		t.Fatalf("K=4096 compiled without weight streaming (%d weight loads)", nLoads)
	}
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewDevice(2 * vclock.GHz)
	dev.SetHost(h)
	got := runGemm(t, dev, h, task, a, b, bias)
	want := ReferenceGemm(task, a, b, bias)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestChunkedGemmWithBiasOnRTL(t *testing.T) {
	task, a, b, bias := gemmCase(8, 48, 64, 4096, true, false)
	h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
	dev := NewRTLDevice(2 * vclock.GHz)
	dev.SetHost(h)
	got := runGemm(t, dev, h, task, a, b, bias)
	want := ReferenceGemm(task, a, b, bias)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestDecodeInstrNeverPanics feeds arbitrary bytes to the instruction
// decoder.
func TestDecodeInstrNeverPanics(t *testing.T) {
	rng := xrand.New(7)
	buf := make([]byte, InstrSize)
	for trial := 0; trial < 1000; trial++ {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			DecodeInstr(buf)
		}()
	}
}

// TestCoreRejectsOutOfRange: decoded-but-hostile instructions must be
// rejected by the functional core, not crash it.
func TestCoreRejectsOutOfRange(t *testing.T) {
	c := NewCore()
	cases := []Instr{
		{Op: OpLoad, Buf: BufInput, SRAMBase: InputBufSize - 1, Rows: 2, Cols: 64},
		{Op: OpLoad, Buf: BufWeight, SRAMBase: WeightBufSize, Rows: 1, Cols: 1},
		{Op: OpLoad, Buf: BufAcc, SRAMBase: AccBufSize, Rows: 1, Cols: 1},
		{Op: OpGemm, M: 16, N: 16, K: 1 << 14, InBase: 0, WgtBase: 0, AccBase: 0},
		{Op: OpAlu, Alu: AluAdd, UseImm: true, AccBase: AccBufSize - 1, Len: 16},
		{Op: OpAlu, Alu: AluAdd, SrcAcc: AccBufSize, AccBase: 0, Len: 16},
	}
	data := make([]byte, 1<<20)
	for i, ins := range cases {
		var err error
		switch ins.Op {
		case OpLoad:
			err = c.LoadBytes(&ins, data)
		case OpGemm:
			err = c.Gemm(&ins)
		case OpAlu:
			err = c.Alu(&ins)
		}
		if err == nil {
			t.Fatalf("case %d accepted out-of-range operands", i)
		}
	}
	if _, err := c.StoreBytes(&Instr{Op: OpStore, SRAMBase: AccBufSize, Rows: 1, Cols: 1}); err == nil {
		t.Fatal("out-of-range store accepted")
	}
}
