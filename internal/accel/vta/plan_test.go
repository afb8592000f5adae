package vta

import (
	"testing"

	"nexsim/internal/accel"
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
	key, err := planKey(&devHost{mem: m}, Desc{Prog: 0x40_0000, Count: uint32(len(prog))})
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
			h := &devHost{mem: mem.New(0), lat: 100 * vclock.Nanosecond}
			h.mem.Map(task.A, mem.NewBlob(i8Bytes(a)))
			h.mem.Map(task.B, mem.NewBlob(i8Bytes(b)))
			run := func() []int8 {
				dev := c.mk()
				dev.(interface{ SetHost(accel.Host) }).SetHost(h)
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
			before := stagedKey(t, h.mem, task)
			if st := h.mem.Stats(); st.Unshared != 0 {
				t.Fatalf("%d operand pages were copied by a run that only reads them", st.Unshared)
			}

			// The last byte of B: in the chunked schedule only the final
			// K-chunk's weight LOAD reaches it.
			at := len(b) - 1
			b[at] ^= 0x55
			h.mem.WriteAt(task.B+mem.Addr(at), []byte{byte(b[at])})
			if st := h.mem.Stats(); st.Unshared != 1 {
				t.Fatalf("a one-byte write into a mapped operand unshared %d pages, want 1", st.Unshared)
			}
			if after := stagedKey(t, h.mem, task); after == before {
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
	devHost
	sums, pages int
}

func (h *sumCounter) ZeroCostSum(addr mem.Addr, n int) uint64 {
	h.sums++
	h.pages += int((addr+mem.Addr(n)+mem.PageSize-1)/mem.PageSize - addr/mem.PageSize)
	return h.mem.Sum(addr, n)
}

// benchPlanKey times the memo-hit path of one doorbell for a K-chunked
// task: 6 tiles × 2 chunks, 24 LOADs whose spans cover A's 96 pages once
// and B's 64 pages twelve times over.
func benchPlanKey(b *testing.B, stage func(m *mem.Memory, task GemmTask, a, bm []int8)) {
	task, a, bm, _ := gemmCase(33, 96, 64, 4096, false, true)
	h := &sumCounter{devHost: devHost{mem: mem.New(0)}}
	stage(h.mem, task, a, bm)
	prog, err := Compile(task)
	if err != nil {
		b.Fatal(err)
	}
	WriteProgram(h.mem, 0x40_0000, prog)
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
