// Package workloads defines the benchmark applications of the paper's
// evaluation (§6.1, Table 2): the VTA deep-learning stack (ResNet-18/34/
// 50, YOLOv3-tiny, matmul), the Protoacc serialization stack
// (HyperProtoBench-style bench0–5), the JPEG decoding stack (image
// corpus + post-processing, single- and multi-threaded), and the
// NPB-style OpenMP kernels used for NEX's configuration studies (§6.6).
//
// Every workload is an app.Program built against a core.Ctx, so the same
// unmodified program runs on every host/accelerator engine combination.
// Workload sizes are scaled down from the paper's (which simulate
// seconds of execution) so that the slowest baseline (gem5+RTL)
// completes in seconds of host time; scaling factors are recorded in
// EXPERIMENTS.md.
package workloads

import (
	"fmt"
	"slices"
	"sync"

	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/isa"
	"nexsim/internal/vclock"
)

// Bench is one catalogued benchmark.
type Bench struct {
	Name    string
	Model   core.AccelModel // required accelerator ("" = CPU-only)
	Devices int             // accelerator instances
	Threads int             // application threads (beyond main)
	// Build constructs the program against an assembled system.
	Build func(ctx *core.Ctx) app.Program
}

// catalog builds the benchmark list and its name index once: ByName sits
// on every Spec.Normalized, i.e. on every served request, and the list
// never changes after start-up.
var catalog = sync.OnceValues(func() ([]Bench, map[string]Bench) {
	var all []Bench
	all = append(all, VTABenches()...)
	all = append(all, ProtoaccBenches()...)
	all = append(all, JPEGBenches()...)
	// The thread counts the NEX configuration studies sweep (Table 4,
	// §6.6): a count is part of the name, not a spec axis.
	for _, threads := range []int{1, 2, 4, 8, 16} {
		all = append(all, NPBBenches(threads)...)
	}
	all = append(all, CPUOnlyBenches()...)
	all = append(all, Bench{
		// CPU companion of vta-resnet50-x2: the §6.4 sweep's baseline
		// (not part of CPUOnlyBenches — the §6.5 error study keeps its
		// original benchmark set).
		Name: "cpu-vta-resnet50-x2", Model: core.AccelNone, Threads: 1,
		Build: func(ctx *core.Ctx) app.Program {
			return CPUInferenceProgram(VTAConfig{Network: "resnet50", Seed: 13, ChannelScale: 2}, ctx)
		},
	})
	byName := make(map[string]Bench, len(all))
	for _, b := range all {
		byName[b.Name] = b // names are unique (TestCatalogIntegrity)
	}
	return all, byName
})

// Catalog returns all named benchmarks, in a slice the caller owns.
func Catalog() []Bench {
	all, _ := catalog()
	return slices.Clone(all)
}

// ByName finds a benchmark.
func ByName(name string) (Bench, error) {
	_, byName := catalog()
	if b, ok := byName[name]; ok {
		return b, nil
	}
	return Bench{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// cyclesWork builds a compute segment from a native cycle count with a
// consistent instruction count (Instr = cycles x IPCNative), so the
// gem5-style model's deviation reflects only its timing model, not
// bookkeeping mismatches.
func cyclesWork(clk vclock.Hz, cycles int64, mix isa.Mix, ws int64, ipc float64, seed uint64) isa.Work {
	if cycles < 1 {
		cycles = 1
	}
	return isa.Work{
		Instr:      int64(float64(cycles) * ipc),
		Mix:        mix,
		WorkingSet: ws,
		IPCNative:  ipc,
		Seed:       seed,
		NativeDur:  clk.CyclesDur(cycles),
	}
}
