package core_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/faults"
	"nexsim/internal/interconnect"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// runBench assembles and runs one benchmark on one combo.
func runBench(t *testing.T, name string, host core.HostKind, accel core.AccelKind) core.Result {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.Build(core.Config{
		Host: host, Accel: accel,
		Model: b.Model, Devices: b.Devices,
		Cores: 16, Seed: 42,
	})
	prog := b.Build(&sys.Ctx)
	return sys.Run(prog)
}

func TestJPEGAllCombos(t *testing.T) {
	ref := runBench(t, "jpeg-decode", core.HostReference, core.AccelRTL)
	if ref.SimTime <= 0 {
		t.Fatal("reference run produced no time")
	}
	combos := []struct {
		host core.HostKind
		acc  core.AccelKind
	}{
		{core.HostNEX, core.AccelDSim},
		{core.HostNEX, core.AccelRTL},
		{core.HostGem5, core.AccelDSim},
		{core.HostGem5, core.AccelRTL},
	}
	for _, c := range combos {
		r := runBench(t, "jpeg-decode", c.host, c.acc)
		err := relErr(r.SimTime, ref.SimTime)
		t.Logf("jpeg-decode %v+%v: sim=%v wall=%v err=%.1f%%",
			c.host, c.acc, r.SimTime, r.WallTime, err*100)
		if r.SimTime <= 0 {
			t.Fatalf("%v+%v: no sim time", c.host, c.acc)
		}
		if err > 0.5 {
			t.Fatalf("%v+%v: sim time %v vs reference %v (err %.0f%%)",
				c.host, c.acc, r.SimTime, ref.SimTime, err*100)
		}
	}
}

func TestVTAResnet18Combos(t *testing.T) {
	ref := runBench(t, "vta-resnet18", core.HostReference, core.AccelRTL)
	nexDSim := runBench(t, "vta-resnet18", core.HostNEX, core.AccelDSim)
	err := relErr(nexDSim.SimTime, ref.SimTime)
	t.Logf("vta-resnet18 ref=%v nex+dsim=%v err=%.1f%% wall ref=%v nex=%v",
		ref.SimTime, nexDSim.SimTime, err*100, ref.WallTime, nexDSim.WallTime)
	if err > 0.35 {
		t.Fatalf("NEX+DSim error vs reference too large: %.0f%%", err*100)
	}
}

func TestProtoaccCombos(t *testing.T) {
	ref := runBench(t, "protoacc-bench0", core.HostReference, core.AccelRTL)
	nexDSim := runBench(t, "protoacc-bench0", core.HostNEX, core.AccelDSim)
	err := relErr(nexDSim.SimTime, ref.SimTime)
	t.Logf("protoacc-bench0 ref=%v nex+dsim=%v err=%.1f%%", ref.SimTime, nexDSim.SimTime, err*100)
	if err > 0.35 {
		t.Fatalf("NEX+DSim error vs reference too large: %.0f%%", err*100)
	}
}

func TestNEXDSimFasterThanGem5RTL(t *testing.T) {
	slow := runBench(t, "vta-resnet18", core.HostGem5, core.AccelRTL)
	fast := runBench(t, "vta-resnet18", core.HostNEX, core.AccelDSim)
	t.Logf("gem5+rtl wall=%v, nex+dsim wall=%v, speedup=%.1fx",
		slow.WallTime, fast.WallTime,
		float64(slow.WallTime)/float64(fast.WallTime))
	if fast.WallTime >= slow.WallTime {
		t.Fatalf("NEX+DSim (%v) not faster than gem5+RTL (%v)",
			fast.WallTime, slow.WallTime)
	}
}

func TestMultiDeviceJPEG(t *testing.T) {
	single := runBench(t, "jpeg-decode", core.HostReference, core.AccelDSim)
	multi := runBench(t, "jpeg-mt.4", core.HostReference, core.AccelDSim)
	t.Logf("jpeg 1 thread: %v, 4 threads: %v", single.SimTime, multi.SimTime)
	if multi.SimTime >= single.SimTime {
		t.Fatal("4 accelerators not faster than 1")
	}
}

func TestDeterminism(t *testing.T) {
	a := runBench(t, "protoacc-bench1", core.HostNEX, core.AccelDSim)
	b := runBench(t, "protoacc-bench1", core.HostNEX, core.AccelDSim)
	if a.SimTime != b.SimTime {
		t.Fatalf("nondeterministic: %v vs %v", a.SimTime, b.SimTime)
	}
}

func TestInterconnectSweepChangesLatency(t *testing.T) {
	run := func(lat vclock.Duration) vclock.Duration {
		b, _ := workloads.ByName("vta-resnet18")
		fab := interconnect.PCIe400.WithLatency(lat)
		sys := core.Build(core.Config{
			Host: core.HostNEX, Accel: core.AccelDSim,
			Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42,
			Fabric: &fab,
		})
		return sys.Run(b.Build(&sys.Ctx)).SimTime
	}
	slow := run(400 * vclock.Nanosecond)
	fast := run(4 * vclock.Nanosecond)
	t.Logf("vta-resnet18 e2e: 400ns fabric %v, 4ns fabric %v", slow, fast)
	if fast >= slow {
		t.Fatal("lower interconnect latency did not reduce e2e time")
	}
}

func relErr(a, b vclock.Duration) float64 {
	return math.Abs(a.Seconds()-b.Seconds()) / b.Seconds()
}

func TestGem5Determinism(t *testing.T) {
	a := runBench(t, "jpeg-decode", core.HostGem5, core.AccelDSim)
	b := runBench(t, "jpeg-decode", core.HostGem5, core.AccelDSim)
	if a.SimTime != b.SimTime {
		t.Fatalf("gem5 nondeterministic: %v vs %v", a.SimTime, b.SimTime)
	}
}

func TestReferenceDeterminism(t *testing.T) {
	a := runBench(t, "vta-matmul", core.HostReference, core.AccelRTL)
	b := runBench(t, "vta-matmul", core.HostReference, core.AccelRTL)
	if a.SimTime != b.SimTime {
		t.Fatalf("reference nondeterministic: %v vs %v", a.SimTime, b.SimTime)
	}
}

// A panic in a thread body surfaces on the goroutine that called TryRun,
// with its original value (an injected fault stays recognisable), and
// Reap afterwards unwinds the threads the run left parked.
func TestThreadPanicPropagatesAndReaps(t *testing.T) {
	// No subtests: a finished subtest's goroutine exits asynchronously
	// and would perturb the next one's count. So does the runner of the
	// test before this one, which may still be on its way out when this
	// one starts: the baseline is taken once the count has held still.
	for _, host := range []core.HostKind{core.HostNEX, core.HostGem5, core.HostReference} {
		before := runtime.NumGoroutine()
		for still := 0; still < 20; still++ {
			time.Sleep(time.Millisecond)
			if n := runtime.NumGoroutine(); n != before {
				before, still = n, 0
			}
		}
		sys := core.Build(core.Config{Host: host, Accel: core.AccelDSim, Model: core.AccelJPEG, Seed: 1})
		fault := &faults.Injected{Site: "thread-body", Op: faults.OpFail}
		prog := app.Program{Name: "faulty", Main: func(e app.Env) {
			e.Spawn("sleeper", func(e app.Env) { e.Park() })
			e.Spawn("faulty", func(e app.Env) {
				e.ComputeFor(vclock.Microsecond)
				panic(fault)
			})
			e.Park()
		}}
		func() {
			defer func() {
				r := recover()
				if r != any(fault) || !faults.IsInjected(r) {
					t.Fatalf("%s: TryRun raised %v, want the thread's injected fault", host, r)
				}
			}()
			sys.TryRun(prog)
			t.Fatalf("%s: TryRun returned from a run whose thread panicked", host)
		}()
		if n := runtime.NumGoroutine(); n != before+2 {
			t.Fatalf("%s: %d goroutines after the panic, want %d (main and sleeper parked)", host, n, before+2)
		}
		sys.Reap()
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%s: %d goroutines after Reap, want %d", host, n, before)
		}
	}
}

// pageAllocs counts the heap allocations of the 4 KB size class so far:
// mem's pages, and next to nothing else in a run.
func pageAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range ms.BySize {
		if c.Size == 4096 {
			return c.Mallocs
		}
	}
	panic("no 4096-byte size class")
}

// TestReleaseRecyclesPages: Release hands the simulated memory's pages to
// the next Build, so from the second Build → Run → Release cycle on a
// sweep allocates (almost) no page memory, and the recycled pages change
// nothing about the run. The operands never were private pages: every
// cycle maps the memoised blobs (DESIGN.md §4.3), so what cycle 0
// allocates and the later ones recycle is what the driver and the device
// write.
func TestReleaseRecyclesPages(t *testing.T) {
	b, err := workloads.ByName("vta-resnet50")
	if err != nil {
		t.Fatal(err)
	}
	// Whatever earlier tests released goes to a memory that keeps it, so
	// the first cycle starts from an empty free list.
	hoard := mem.New(0)
	for p := mem.Addr(0); p < 8192; p++ {
		hoard.WriteAt(p*mem.PageSize, []byte{1})
	}
	var first core.Result
	for i := 0; i < 5; i++ {
		before := pageAllocs()
		sys := core.Build(core.Config{Host: core.HostNEX, Accel: core.AccelDSim, Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42})
		r := sys.Run(b.Build(&sys.Ctx))
		st := sys.Ctx.Mem.Stats()
		sys.Release()
		sys.Release() // a second Release is a no-op
		pages := pageAllocs() - before
		t.Logf("cycle %d: %d fresh 4 KB allocations; pages %+v", i, pages, st)
		if st.Aliased <= 512 {
			t.Errorf("cycle %d aliased %d pages, want > 512: the operands are copied, not mapped", i, st.Aliased)
		}
		if i == 0 {
			first = r
			if pages < 128 {
				t.Fatalf("the workload touches only %d pages; the bound below would prove nothing", pages)
			}
			continue
		}
		if pages*4096 >= 1<<20 {
			t.Errorf("cycle %d allocated %d fresh pages (%d KB), want < 1 MB: pages are not recycled", i, pages, pages*4)
		}
		if r.SimTime != first.SimTime {
			t.Errorf("cycle %d on recycled pages simulated %v, the first %v", i, r.SimTime, first.SimTime)
		}
	}
}

// TestOperandsStagedWithoutCopy: the design-sweep workload's 7.4 MB of
// operands reach every system after the first as page-table entries. The
// few pages that are copied are the ones its instruction streams land on
// (the program region starts inside the operand arena, DESIGN.md §8).
func TestOperandsStagedWithoutCopy(t *testing.T) {
	b, err := workloads.ByName("vta-resnet50-x2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sys := core.Build(core.Config{Host: core.HostNEX, Accel: core.AccelDSim, Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42})
		sys.Run(b.Build(&sys.Ctx))
		st := sys.Ctx.Mem.Stats()
		sys.Release()
		t.Logf("cycle %d: pages %+v", i, st)
		if st.Aliased <= 1500 || st.Unshared >= 100 {
			t.Errorf("cycle %d: %d pages aliased and %d of them copied, want > 1500 and < 100", i, st.Aliased, st.Unshared)
		}
	}
}

// buildRunRelease is one sweep point: a system built, run and released.
func buildRunRelease(tb testing.TB, b workloads.Bench) {
	tb.Helper()
	sys := core.Build(core.Config{Host: core.HostNEX, Accel: core.AccelDSim, Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42})
	sys.Run(b.Build(&sys.Ctx))
	sys.Release()
}

// TestReleasedSystemsRetainBoundedHeap: what released systems leave
// behind is sized by what their runs touched and bounded whatever they
// were — the eight LLCs of vta-resnet18-mp8 used to stay pooled at their
// full 8.4 MB each (73 MB retained), and a system of a hundred devices
// held 830 MB for the life of the process. The second bound is the first
// plus the 32 MB the cache pool may keep.
func TestReleasedSystemsRetainBoundedHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	b, err := workloads.ByName("vta-resnet18-mp8")
	if err != nil {
		t.Fatal(err)
	}
	base := heap()
	for i := 0; i < 3; i++ {
		buildRunRelease(t, b)
	}
	if grew := heap() - base; grew > 32<<20 {
		t.Errorf("three released runs of %s retain %d MB, want at most 32", b.Name, grew>>20)
	}
	core.Build(core.Config{Host: core.HostNEX, Model: core.AccelVTA, Devices: 100, Cores: 16, Seed: 42}).Release()
	if grew := heap() - base; grew > 64<<20 {
		t.Errorf("a released system of 100 devices retains %d MB, want at most 64", grew>>20)
	}
}

// BenchmarkBuildRelease is the memory cost of one sweep point on the
// eight-device bench: B/op is what a build, a run and a release allocate
// with the pools warm.
func BenchmarkBuildRelease(b *testing.B) {
	bench, err := workloads.ByName("vta-resnet18-mp8")
	if err != nil {
		b.Fatal(err)
	}
	buildRunRelease(b, bench)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildRunRelease(b, bench)
	}
}
