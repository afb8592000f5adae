package vta

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

func i8Bytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}

// stagedKey writes task's program and descriptor the way launchGemm does
// and returns the plan key a doorbell would look up.
func stagedKey(t *testing.T, m *mem.Memory, task GemmTask) uint64 {
	t.Helper()
	prog, err := Compile(task)
	if err != nil {
		t.Fatal(err)
	}
	WriteProgram(m, 0x40_0000, prog)
	key, err := planKey(&acceltest.Host{Mem: m}, Desc{Prog: 0x40_0000, Count: uint32(len(prog))})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestNoStalePlanAfterOperandWrite: the plan memo is keyed on page sums,
// not operand bytes, so the one way it could go wrong is a write the sums
// do not see. Operands are mapped from blobs as the workloads stage them,
// a task runs, one operand byte is flipped through WriteAt (which unshares
// its page), and the same descriptor runs again on a fresh device: the key
// must differ and C must be the oracle's for the flipped operands. Both
// schedules (resident weights, K-chunked) and both models share the memo.
func TestNoStalePlanAfterOperandWrite(t *testing.T) {
	for _, c := range []struct {
		name    string
		m, n, k int
		mk      func() accel.Device
	}{
		{"resident/dsim", 64, 32, 48, func() accel.Device { return NewDevice(2 * vclock.GHz) }},
		{"chunked/dsim", 48, 64, 4096, func() accel.Device { return NewDevice(2 * vclock.GHz) }},
		{"chunked/rtl", 32, 64, 4096, func() accel.Device { return NewRTLDevice(2 * vclock.GHz) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			task, a, b, _ := gemmCase(31, c.m, c.n, c.k, false, true)
			h := &acceltest.Host{Mem: mem.New(0), Lat: 100 * vclock.Nanosecond}
			h.Mem.Map(task.A, mem.NewBlob(i8Bytes(a)))
			h.Mem.Map(task.B, mem.NewBlob(i8Bytes(b)))
			run := func() []int8 {
				dev := c.mk()
				dev.SetHost(h)
				return launchGemm(t, dev, h, task)
			}
			check := func(got []int8) {
				t.Helper()
				for i, want := range ReferenceGemm(task, a, b, nil) {
					if got[i] != want {
						t.Fatalf("C[%d] = %d, want %d", i, got[i], want)
					}
				}
			}
			check(run())
			before := stagedKey(t, h.Mem, task)
			if st := h.Mem.Stats(); st.Unshared != 0 {
				t.Fatalf("%d operand pages were copied by a run that only reads them", st.Unshared)
			}

			// The last byte of B: in the chunked schedule only the final
			// K-chunk's weight LOAD reaches it.
			at := len(b) - 1
			b[at] ^= 0x55
			h.Mem.WriteAt(task.B+mem.Addr(at), []byte{byte(b[at])})
			if st := h.Mem.Stats(); st.Unshared != 1 {
				t.Fatalf("a one-byte write into a mapped operand unshared %d pages, want 1", st.Unshared)
			}
			if after := stagedKey(t, h.Mem, task); after == before {
				t.Fatal("the plan key did not move with an operand byte")
			}
			check(run())
		})
	}
}

// The converse: how the bytes got there is not in the key. Operands
// mapped from blobs and operands written with StoreOperands (private
// pages, hashed in place) give one key, so neither staging path can miss
// where the other would hit.
func TestPlanKeyIgnoresStagingPath(t *testing.T) {
	task, a, b, _ := gemmCase(32, 48, 64, 4096, false, true)
	mapped, written := mem.New(0), mem.New(0)
	mapped.Map(task.A, mem.NewBlob(i8Bytes(a)))
	mapped.Map(task.B, mem.NewBlob(i8Bytes(b)))
	StoreOperands(written, task, a, b, nil)
	if k1, k2 := stagedKey(t, mapped, task), stagedKey(t, written, task); k1 != k2 {
		t.Fatalf("byte-equal operands key differently: mapped %#x, written %#x", k1, k2)
	}
}

// sumCounter counts what a plan key costs the host.
type sumCounter struct {
	acceltest.Host
	sums, pages int
}

func (h *sumCounter) ZeroCostSum(addr mem.Addr, n int) uint64 {
	h.sums++
	h.pages += int((addr+mem.Addr(n)+mem.PageSize-1)/mem.PageSize - addr/mem.PageSize)
	return h.Mem.Sum(addr, n)
}

// benchPlanKey times the memo-hit path of one doorbell for a K-chunked
// task: 6 tiles × 2 chunks, 24 LOADs whose spans cover A's 96 pages once
// and B's 64 pages twelve times over.
func benchPlanKey(b *testing.B, stage func(m *mem.Memory, task GemmTask, a, bm []int8)) {
	task, a, bm, _ := gemmCase(33, 96, 64, 4096, false, true)
	h := &sumCounter{Host: acceltest.Host{Mem: mem.New(0)}}
	stage(h.Mem, task, a, bm)
	prog, err := Compile(task)
	if err != nil {
		b.Fatal(err)
	}
	WriteProgram(h.Mem, 0x40_0000, prog)
	desc := Desc{Prog: 0x40_0000, Count: uint32(len(prog))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planKey(h, desc); err != nil {
			b.Fatal(err)
		}
	}
	operand := (len(a) + len(bm)) / mem.PageSize
	if per := h.pages / b.N; per > operand+4 {
		b.Fatalf("one key summed %d pages for %d pages of operands: spans are re-summed per LOAD", per, operand)
	}
	b.ReportMetric(float64(h.pages)/float64(b.N), "pages/key")
	b.ReportMetric(float64(h.sums)/float64(b.N), "sums/key")
}

// BenchmarkPlanKeyAliased: operands mapped from blobs, every page sum a
// table lookup.
func BenchmarkPlanKeyAliased(b *testing.B) {
	benchPlanKey(b, func(m *mem.Memory, task GemmTask, a, bm []int8) {
		m.Map(task.A, mem.NewBlob(i8Bytes(a)))
		m.Map(task.B, mem.NewBlob(i8Bytes(bm)))
	})
}

// BenchmarkPlanKeyPrivate: operands written with StoreOperands, every
// page hashed in place — once per key, not once per LOAD that covers it.
func BenchmarkPlanKeyPrivate(b *testing.B) {
	benchPlanKey(b, func(m *mem.Memory, task GemmTask, a, bm []int8) {
		StoreOperands(m, task, a, bm, nil)
	})
}

// planCase is one program staged in a memory, with the operands it reads.
type planCase struct {
	name string
	host *acceltest.Host
	desc Desc
}

// stagePlanCase writes prog at 0x40_0000 into a memory holding task's
// operands, drawn from seed.
func stagePlanCase(name string, seed uint64, task GemmTask, prog []Instr) planCase {
	_, a, b, bias := gemmCase(seed, task.M, task.N, task.K, task.Bias != 0, task.ReLU)
	h := &acceltest.Host{Mem: mem.New(0)}
	StoreOperands(h.Mem, task, a, b, bias)
	WriteProgram(h.Mem, 0x40_0000, prog)
	return planCase{name, h, Desc{Prog: 0x40_0000, Count: uint32(len(prog))}}
}

// planCases are compiled GEMMs — weights resident and K-chunked (strided
// LOADs), with and without a bias (accumulator LOADs) — and programs the
// build must refuse: no FINISH, an undecodable instruction, a LOAD out
// of its buffer.
func planCases(t *testing.T) []planCase {
	var cases []planCase
	for i, s := range []struct {
		m, n, k int
		bias    bool
	}{{16, 16, 27, false}, {64, 32, 48, true}, {48, 64, 4096, false}, {32, 63, 4100, true}, {16, 128, 576, true}} {
		task, _, _, _ := gemmCase(0, s.m, s.n, s.k, s.bias, i%2 == 0)
		prog, err := Compile(task)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stagePlanCase(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), uint64(40+i), task, prog))
	}
	task, _, _, _ := gemmCase(0, 16, 16, 16, false, false)
	prog, err := Compile(task)
	if err != nil {
		t.Fatal(err)
	}
	noFinish := slices.Clone(prog[:len(prog)-1])
	cases = append(cases, stagePlanCase("no-finish", 50, task, noFinish))
	badLoad := slices.Clone(prog)
	badLoad[0].SRAMBase = WeightBufSize - 1
	cases = append(cases, stagePlanCase("load-out-of-range", 51, task, badLoad))
	cases = append(cases, stagePlanCase("store-only", 53, task, []Instr{
		{Op: OpStore, DRAM: uint64(task.C), Rows: 16, Cols: 16, Stride: 32}, {Op: OpFinish}}))
	c := stagePlanCase("bad-opcode", 52, task, prog)
	c.host.Mem.WriteAt(c.desc.Prog+InstrSize, []byte{99})
	return append(cases, c)
}

// buildPlan leaves every op list, DMA address plan and store payload, or
// the error, as the assembly it replaced does — run after run, so that
// each interpretation after the first takes a recycled core.
func TestBuildPlanMatchesReference(t *testing.T) {
	for pass := 0; pass < 2; pass++ {
		for _, c := range planCases(t) {
			loads, computes, stores, err := buildPlan(c.host.ZeroCostRead, c.desc)
			refRead := func(addr mem.Addr, size int) []byte {
				buf := make([]byte, size)
				c.host.ZeroCostRead(addr, buf)
				return buf
			}
			wl, wc, ws, werr := refBuildPlan(refRead, c.desc)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, reference %v", c.name, err, werr)
			}
			for _, m := range []struct {
				name      string
				got, want []planOp
			}{{"loads", loads, wl}, {"computes", computes, wc}, {"stores", stores, ws}} {
				if (len(m.got) > 0 || len(m.want) > 0) && !reflect.DeepEqual(m.got, m.want) {
					t.Fatalf("%s: %s differ from the reference's", c.name, m.name)
				}
			}
			if werr == nil && len(ws) == 0 {
				t.Fatalf("%s: no stores to compare", c.name)
			}
		}
	}
}

// A core comes out of corePool in NewCore's state whatever the last
// interpretation left in it: a program that stores accumulators it never
// wrote stores zeros right after one that wrote them.
func TestPooledCoreStartsClean(t *testing.T) {
	dirty := NewCore()
	for j := range dirty.Acc {
		dirty.Input[j%InputBufSize], dirty.Weight[j%WeightBufSize], dirty.Acc[j] = 1, 2, 3
	}
	putCore(dirty)
	if slices.ContainsFunc(dirty.Input, func(v int8) bool { return v != 0 }) ||
		slices.ContainsFunc(dirty.Weight, func(v int8) bool { return v != 0 }) ||
		slices.ContainsFunc(dirty.Acc, func(v int32) bool { return v != 0 }) {
		t.Fatal("putCore pooled a core with live SRAM")
	}

	task, _, _, _ := gemmCase(0, 16, 64, 64, false, false)
	prog, err := Compile(task)
	if err != nil {
		t.Fatal(err)
	}
	busy := stagePlanCase("busy", 60, task, prog)
	if _, _, _, err := buildPlan(busy.host.ZeroCostRead, busy.desc); err != nil {
		t.Fatal(err)
	}
	idle := stagePlanCase("idle", 61, task, []Instr{
		{Op: OpStore, SRAMBase: 0, DRAM: uint64(task.C), Rows: 16, Cols: 64},
		{Op: OpFinish},
	})
	_, _, stores, err := buildPlan(idle.host.ZeroCostRead, idle.desc)
	if err != nil {
		t.Fatal(err)
	}
	if out := stores[0].dmas[0].data; len(out) != 16*64 || slices.ContainsFunc(out, func(b byte) bool { return b != 0 }) {
		t.Fatalf("a store of never-written accumulators gave % x", out[:16])
	}
}
