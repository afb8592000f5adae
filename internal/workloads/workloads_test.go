package workloads

import (
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/vclock"
)

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Catalog() {
		if b.Name == "" {
			t.Fatal("benchmark with empty name")
		}
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Build == nil {
			t.Fatalf("%s has no builder", b.Name)
		}
		if b.Model != core.AccelNone && b.Devices <= 0 {
			t.Fatalf("%s needs an accelerator but declares no devices", b.Name)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("catalog has only %d benchmarks", len(seen))
	}
}

func TestCatalogBuiltOnce(t *testing.T) {
	a, b := Catalog(), Catalog()
	if len(a) != len(b) {
		t.Fatalf("catalog sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Model != b[i].Model ||
			a[i].Devices != b[i].Devices || a[i].Threads != b[i].Threads {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A caller reordering its copy must not reach the shared catalog.
	last := a[len(a)-1].Name
	a[0], a[len(a)-1] = a[len(a)-1], a[0]
	if c := Catalog(); c[0].Name != b[0].Name || c[len(c)-1].Name != last {
		t.Fatal("Catalog() handed out the shared slice")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName(last); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ByName allocates %v times per lookup, want 0", n)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("definitely-not-a-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestNetworkShapes(t *testing.T) {
	for _, n := range Networks() {
		if len(n.Layers) == 0 {
			t.Fatalf("%s has no layers", n.Name)
		}
		var macs int64
		for _, l := range n.Layers {
			if l.Cin <= 0 || l.Cout <= 0 || l.K <= 0 || l.Stride <= 0 {
				t.Fatalf("%s has malformed layer %+v", n.Name, l)
			}
			oh, ow := l.outDims()
			macs += int64(oh) * int64(ow) * int64(l.Cout) * int64(l.Cin) * int64(l.K*l.K)
		}
		if macs <= 0 {
			t.Fatalf("%s has no compute", n.Name)
		}
	}
	// Depth ordering: resnet50 > resnet34 > resnet18 in layer count.
	byName := map[string]int{}
	for _, n := range Networks() {
		byName[n.Name] = len(n.Layers)
	}
	if !(byName["resnet50"] > byName["resnet34"] && byName["resnet34"] > byName["resnet18"]) {
		t.Fatalf("layer counts out of order: %v", byName)
	}
}

func TestGemmOfRespectsAccBound(t *testing.T) {
	for _, n := range Networks() {
		for _, l := range n.Layers {
			m, nn, k := gemmOf(l, 4, 4)
			if m%16 != 0 {
				t.Fatalf("M=%d not tile-aligned", m)
			}
			if 2*16*nn > 32<<10 {
				t.Fatalf("N=%d exceeds accumulator bound", nn)
			}
			if k < 1 {
				t.Fatalf("K=%d", k)
			}
		}
	}
}

func TestNPBProgramUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NPBProgram("nope", 4, 3*vclock.GHz)
}

func TestCPUOnlyBenchesHaveNoDevices(t *testing.T) {
	for _, b := range CPUOnlyBenches() {
		if b.Model != core.AccelNone {
			t.Fatalf("%s declares an accelerator", b.Name)
		}
	}
}

func TestProtoBenchLookup(t *testing.T) {
	if _, ok := ProtoBenchByName("protoacc-bench0"); !ok {
		t.Fatal("bench0 missing")
	}
	if _, ok := ProtoBenchByName("protoacc-bench9"); ok {
		t.Fatal("phantom bench")
	}
}

// Integration sanity: every catalogued benchmark runs to completion on
// the cheapest engine combination and produces positive simulated time.
func TestEveryBenchmarkRuns(t *testing.T) {
	for _, b := range Catalog() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys := core.Build(core.Config{
				Host: core.HostNEX, Accel: core.AccelDSim,
				Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42,
			})
			r := sys.Run(b.Build(&sys.Ctx))
			if r.SimTime <= 0 {
				t.Fatal("no simulated time")
			}
		})
	}
}

func TestCorpusCacheDeterministic(t *testing.T) {
	cfg := JPEGConfig{Images: 4, Seed: 5}.withDefaults()
	run := func() vclock.Duration {
		sys := core.Build(core.Config{
			Host: core.HostReference, Accel: core.AccelDSim,
			Model: core.AccelJPEG, Devices: 1, Cores: 8, Seed: 42,
		})
		return sys.Run(JPEGProgram(cfg, &sys.Ctx)).SimTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("corpus-cached runs differ: %v vs %v", a, b)
	}
}
