package bench

import (
	"fmt"

	"nexsim/internal/experiments"
)

// The four workloads (bench/README.md says why each was chosen).
const (
	Gem5RTLTables = "gem5rtl_tables"
	NexDSimTables = "nexdsim_tables"
	SweepFork     = "sweep_fork"
	ServeMix      = "serve_mix"
)

// Workloads lists the workload names in run order.
var Workloads = []string{Gem5RTLTables, NexDSimTables, SweepFork, ServeMix}

// KnownWorkload reports whether name is one of Workloads.
func KnownWorkload(name string) bool {
	for _, w := range Workloads {
		if w == name {
			return true
		}
	}
	return false
}

// IsBatch reports whether the workload is one of the three closed-batch
// workloads (as opposed to the serving workload).
func IsBatch(name string) bool { return name != ServeMix }

// calSeed draws the calibration seed (experiments.Spec.Seed) of one
// named spec or sweep family from the workload seed. Spec.Seed drives
// the NEX error model, so it changes simulated results but not the
// amount of host work: every workload seed measures the same work.
func calSeed(seed uint64, name string) uint64 {
	return 1 + stream(seed, name).Uint64()%(1<<31)
}

// shuffled returns specs in an order drawn from the workload seed.
func shuffled(seed uint64, name string, specs []experiments.Spec) []experiments.Spec {
	out := make([]experiments.Spec, len(specs))
	for i, j := range stream(seed, name+"/order").Perm(len(specs)) {
		out[i] = specs[j]
	}
	return out
}

// gem5rtlBenches is the paper's baseline path: the gem5-style CPU model
// stepping every instruction through cachesim under exacthost, RTL
// devices behind interconnect and dram. Six accelerated stacks and three
// CPU-only programs.
var gem5rtlBenches = []string{
	"vta-resnet18", "vta-matmul", "protoacc-bench0", "protoacc-bench4",
	"jpeg-decode", "jpeg-mt.4",
	"cpu-jpeg-decode", "cpu-vta-resnet50", "cpu-protoacc-bench0",
}

// acceleratedBenches are the 18 accelerated catalog benches.
var acceleratedBenches = []string{
	"vta-resnet18", "vta-resnet34", "vta-resnet50", "vta-resnet50-x2",
	"vta-yolov3-tiny", "vta-matmul", "vta-resnet18-mp4", "vta-resnet18-mp8",
	"protoacc-bench0", "protoacc-bench1", "protoacc-bench2",
	"protoacc-bench3", "protoacc-bench4", "protoacc-bench5",
	"jpeg-decode", "jpeg-mt.2", "jpeg-mt.4", "jpeg-mt.8",
}

// npbKernels are the device-less OpenMP kernels of the NEX studies.
var npbKernels = []string{"ep", "cg", "mg", "ft", "is", "bt", "sp", "lu"}

// Gem5RTLSpecs generates the gem5rtl_tables pass: 9 specs.
func Gem5RTLSpecs(seed uint64) []experiments.Spec {
	var specs []experiments.Spec
	for _, b := range gem5rtlBenches {
		specs = append(specs, experiments.Spec{Bench: b, Host: "gem5", Accel: "rtl",
			Seed: calSeed(seed, Gem5RTLTables+"/"+b)})
	}
	return shuffled(seed, Gem5RTLTables, specs)
}

// AcceleratedSpecs generates the 18 accelerated benches at defaults on
// one engine pair, with the calibration seeds NexDSimSpecs uses (so the
// reference+rtl twin of each nex+dsim spec differs only in engines).
func AcceleratedSpecs(seed uint64, host, accel string) []experiments.Spec {
	var specs []experiments.Spec
	for _, b := range acceleratedBenches {
		specs = append(specs, experiments.Spec{Bench: b, Host: host, Accel: accel,
			Seed: calSeed(seed, NexDSimTables+"/"+b)})
	}
	return specs
}

// NPBSpecs generates the 16 device-less NEX specs: every NPB kernel at
// two epoch lengths on an under-provisioned host (16 virtual cores on 4
// physical).
func NPBSpecs(seed uint64) []experiments.Spec {
	var specs []experiments.Spec
	for _, k := range npbKernels {
		for _, epoch := range []int64{500, 1000} {
			name := fmt.Sprintf("npb-%s.8", k)
			specs = append(specs, experiments.Spec{Bench: name, Host: "nex", Accel: "dsim",
				EpochNS: epoch, VirtualCores: 16, PhysicalCores: 4,
				Seed: calSeed(seed, NexDSimTables+"/"+name)})
		}
	}
	return specs
}

// NexDSimSpecs generates the nexdsim_tables pass: 34 specs on the
// paper's contribution path.
func NexDSimSpecs(seed uint64) []experiments.Spec {
	specs := append(AcceleratedSpecs(seed, "nex", "dsim"), NPBSpecs(seed)...)
	return shuffled(seed, NexDSimTables, specs)
}

// SweepFamily is one prefix-sharing design sweep: members differ only
// in accelerator-side parameters, so with checkpoints on they fork from
// one shared prefix snapshot.
type SweepFamily struct {
	Name  string
	Specs []experiments.Spec
}

// SweepFamilies generates the four families of sweep_fork.
func SweepFamilies(seed uint64) []SweepFamily {
	fam := func(bench string) experiments.Spec {
		return experiments.Spec{Bench: bench, Host: "nex", Accel: "dsim",
			Seed: calSeed(seed, SweepFork+"/"+bench)}
	}
	var out []SweepFamily
	add := func(name string, specs []experiments.Spec) {
		out = append(out, SweepFamily{Name: name, Specs: specs})
	}

	var link []experiments.Spec
	for _, ns := range []int64{400, 200, 100, 50, 25, 4} {
		s := fam("vta-resnet50-x2")
		s.LinkLatencyNS = ns
		link = append(link, s)
	}
	add("vta-resnet50-x2/link", link)

	var proto []experiments.Spec
	for _, ns := range []int64{2, 4, 16, 64, 128, 256, 400} {
		s := fam("protoacc-bench0")
		s.LinkLatencyNS = ns
		proto = append(proto, s)
	}
	add("protoacc-bench0/link", proto)

	var jpeg []experiments.Spec
	for _, mhz := range []int64{1000, 2000} {
		for _, accel := range []string{"dsim", "rtl"} {
			s := fam("jpeg-mt.8")
			s.AccelClockMHz = mhz
			s.Accel = accel
			jpeg = append(jpeg, s)
		}
	}
	add("jpeg-mt.8/clock-engine", jpeg)

	var mp []experiments.Spec
	for _, ns := range []int64{400, 100, 25, 4} {
		s := fam("vta-resnet18-mp4")
		s.LinkLatencyNS = ns
		mp = append(mp, s)
	}
	add("vta-resnet18-mp4/link", mp)
	return out
}

// SweepForkSpecs generates the sweep_fork pass: the 21 members of the
// four families, in an order drawn from the seed.
func SweepForkSpecs(seed uint64) []experiments.Spec {
	var specs []experiments.Spec
	for _, f := range SweepFamilies(seed) {
		specs = append(specs, f.Specs...)
	}
	return shuffled(seed, SweepFork, specs)
}

// BatchSpecs returns the pass of a batch workload.
func BatchSpecs(workload string, seed uint64) []experiments.Spec {
	switch workload {
	case Gem5RTLTables:
		return Gem5RTLSpecs(seed)
	case NexDSimTables:
		return NexDSimSpecs(seed)
	case SweepFork:
		return SweepForkSpecs(seed)
	}
	return nil
}

// tinyBenches are the cheap benches a smoke-sized round keeps (the
// harness self-tests run every workload through the full code path in
// a few hundred milliseconds).
var tinyBenches = map[string]bool{
	"vta-matmul": true, "protoacc-bench4": true, "protoacc-bench0": true,
	"jpeg-mt.8": true, "jpeg-mt.4": true, "npb-ep.8": true,
}

// sized returns specs unchanged, or only its cheap members when tiny.
func sized(tiny bool, specs []experiments.Spec) []experiments.Spec {
	if !tiny {
		return specs
	}
	var out []experiments.Spec
	for _, s := range specs {
		if tinyBenches[s.Bench] {
			out = append(out, s)
		}
	}
	return out
}
