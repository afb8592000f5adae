package workloads

import (
	"testing"

	"nexsim/internal/accel/vta"
	"nexsim/internal/mem"
	"nexsim/internal/xrand"
)

// resnet50x2Tasks is the operand set of the design-sweep workload
// (vta-resnet50-x2): 49 layers, 7.4 MB of A and B matrices.
func resnet50x2Tasks() []vta.GemmTask {
	cfg := VTAConfig{Network: "resnet50", Seed: 13, ChannelScale: 2}.withDefaults()
	for _, n := range Networks() {
		if n.Name == cfg.Network {
			return gemmTasks(cfg, n.Layers)
		}
	}
	panic("no resnet50 in the model zoo")
}

// The staged layout is what the device reads: every operand page is
// mapped, none is copied, and a second staging into another memory sums
// page for page like the first (the determinism the plan memo's hit rate
// rests on, DESIGN.md §4.3).
func TestStageOperandsMapsDeterministically(t *testing.T) {
	stage := func() (*mem.Memory, []vta.GemmTask) {
		m, tasks := mem.New(0), resnet50x2Tasks()
		stageOperands(m, xrand.New(13), 0x1000_0000, tasks)
		return m, tasks
	}
	m1, tasks := stage()
	m2, _ := stage()
	if st := m1.Stats(); st.Aliased < 1500 || st.Private != 0 {
		t.Fatalf("staging mapped %d pages and allocated %d, want > 1500 and 0", st.Aliased, st.Private)
	}
	for i, task := range tasks {
		if m1.Sum(task.A, task.M*task.K) != m2.Sum(task.A, task.M*task.K) || m1.Sum(task.B, task.N*task.K) != m2.Sum(task.B, task.N*task.K) {
			t.Fatalf("layer %d: two stagings of one seed sum differently", i)
		}
	}
}

// randI8 draws the bytes it drew when it called Intn(256) - 128 per
// element, so no operand blob, page sum or plan-memo key moved with the
// division-free form.
func TestRandI8MatchesIntnDraws(t *testing.T) {
	for _, seed := range []uint64{0, 1, 13, 1 << 63, ^uint64(0)} {
		for _, n := range []int{0, 1, 255, 4096, 16*147 + 1} {
			m := mem.New(0)
			m.Map(0x1000, randI8(xrand.New(seed).Derive("a16x147"), n))
			got := make([]byte, n)
			m.ReadAt(0x1000, got)
			rng := xrand.New(seed).Derive("a16x147")
			for i, b := range got {
				if want := byte(rng.Intn(256) - 128); b != want {
					t.Fatalf("seed %d, %d bytes: byte %d = %#x, Intn(256)-128 gives %#x", seed, n, i, b, want)
				}
			}
		}
	}
}

// benchStageOperands times staging the resnet50-x2 operand set into a
// fresh memory and releasing it, as every system of a sweep and every
// journal-replay restore does.
func benchStageOperands(b *testing.B, stage func(m *mem.Memory)) {
	stage(mem.New(0)) // fills randI8Memo: generating the operands is not staging them
	var pages int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mem.New(0)
		stage(m)
		st := m.Stats()
		pages = st.Aliased + st.Private
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pages), "ns/page")
}

// BenchmarkStageOperandsMap: the blobs are memoised, staging is one
// page-table entry per page.
func BenchmarkStageOperandsMap(b *testing.B) {
	tasks := resnet50x2Tasks()
	benchStageOperands(b, func(m *mem.Memory) { stageOperands(m, xrand.New(13), 0x1000_0000, tasks) })
}

// BenchmarkStageOperandsWriteAt: the same bytes through WriteAt, what
// staging cost before operands were blobs: a zeroed page and a copy each.
func BenchmarkStageOperandsWriteAt(b *testing.B) {
	tasks := resnet50x2Tasks()
	src := mem.New(0)
	stageOperands(src, xrand.New(13), 0x1000_0000, tasks)
	type operand struct {
		addr mem.Addr
		data []byte
	}
	var operands []operand
	for _, t := range tasks {
		for _, o := range []operand{{t.A, make([]byte, t.M*t.K)}, {t.B, make([]byte, t.N*t.K)}} {
			src.ReadAt(o.addr, o.data)
			operands = append(operands, o)
		}
	}
	benchStageOperands(b, func(m *mem.Memory) {
		for _, o := range operands {
			m.WriteAt(o.addr, o.data)
		}
	})
}
