package workloads

import (
	"fmt"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/accel/vta"
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// Layer is one convolution layer of a network: Cin x H x W input,
// Cout filters of KxK, given stride.
type Layer struct {
	Cin, H, W, Cout, K, Stride int
}

// outDims returns the output spatial dims (same padding).
func (l Layer) outDims() (int, int) { return l.H / l.Stride, l.W / l.Stride }

// Network is a named layer stack.
type Network struct {
	Name   string
	Input  int // input image edge
	Layers []Layer
}

// repeatLayer appends n copies of a residual-style 3x3 block.
func repeatLayer(ls []Layer, n, c, hw int) []Layer {
	for i := 0; i < n; i++ {
		ls = append(ls, Layer{Cin: c, H: hw, W: hw, Cout: c, K: 3, Stride: 1})
	}
	return ls
}

// Networks returns the model zoo of the evaluation (full-size layer
// tables; scaling happens in VTAProgram).
func Networks() []Network {
	resnet18 := Network{Name: "resnet18", Input: 224}
	ls := []Layer{{Cin: 3, H: 224, W: 224, Cout: 64, K: 7, Stride: 2}}
	ls = repeatLayer(ls, 4, 64, 56)
	ls = append(ls, Layer{Cin: 64, H: 56, W: 56, Cout: 128, K: 3, Stride: 2})
	ls = repeatLayer(ls, 3, 128, 28)
	ls = append(ls, Layer{Cin: 128, H: 28, W: 28, Cout: 256, K: 3, Stride: 2})
	ls = repeatLayer(ls, 3, 256, 14)
	ls = append(ls, Layer{Cin: 256, H: 14, W: 14, Cout: 512, K: 3, Stride: 2})
	ls = repeatLayer(ls, 3, 512, 7)
	resnet18.Layers = ls

	resnet34 := Network{Name: "resnet34", Input: 224}
	ls = []Layer{{Cin: 3, H: 224, W: 224, Cout: 64, K: 7, Stride: 2}}
	ls = repeatLayer(ls, 6, 64, 56)
	ls = append(ls, Layer{Cin: 64, H: 56, W: 56, Cout: 128, K: 3, Stride: 2})
	ls = repeatLayer(ls, 7, 128, 28)
	ls = append(ls, Layer{Cin: 128, H: 28, W: 28, Cout: 256, K: 3, Stride: 2})
	ls = repeatLayer(ls, 11, 256, 14)
	ls = append(ls, Layer{Cin: 256, H: 14, W: 14, Cout: 512, K: 3, Stride: 2})
	ls = repeatLayer(ls, 5, 512, 7)
	resnet34.Layers = ls

	// ResNet-50 bottlenecks: 1x1 reduce, 3x3, 1x1 expand per block.
	resnet50 := Network{Name: "resnet50", Input: 224}
	ls = []Layer{{Cin: 3, H: 224, W: 224, Cout: 64, K: 7, Stride: 2}}
	bottleneck := func(ls []Layer, n, cin, mid, hw, stride int) []Layer {
		for i := 0; i < n; i++ {
			s := 1
			if i == 0 {
				s = stride
			}
			ls = append(ls,
				Layer{Cin: cin, H: hw, W: hw, Cout: mid, K: 1, Stride: s},
				Layer{Cin: mid, H: hw / s, W: hw / s, Cout: mid, K: 3, Stride: 1},
				Layer{Cin: mid, H: hw / s, W: hw / s, Cout: mid * 4, K: 1, Stride: 1},
			)
			cin = mid * 4
		}
		return ls
	}
	ls = bottleneck(ls, 3, 64, 64, 56, 1)
	ls = bottleneck(ls, 4, 256, 128, 56, 2)
	ls = bottleneck(ls, 6, 512, 256, 28, 2)
	ls = bottleneck(ls, 3, 1024, 512, 14, 2)
	resnet50.Layers = ls

	yolo := Network{Name: "yolov3-tiny", Input: 416}
	yolo.Layers = []Layer{
		{Cin: 3, H: 416, W: 416, Cout: 16, K: 3, Stride: 1},
		{Cin: 16, H: 208, W: 208, Cout: 32, K: 3, Stride: 1},
		{Cin: 32, H: 104, W: 104, Cout: 64, K: 3, Stride: 1},
		{Cin: 64, H: 52, W: 52, Cout: 128, K: 3, Stride: 1},
		{Cin: 128, H: 26, W: 26, Cout: 256, K: 3, Stride: 1},
		{Cin: 256, H: 13, W: 13, Cout: 512, K: 3, Stride: 1},
		{Cin: 512, H: 13, W: 13, Cout: 1024, K: 3, Stride: 1},
		{Cin: 1024, H: 13, W: 13, Cout: 256, K: 1, Stride: 1},
		{Cin: 256, H: 13, W: 13, Cout: 512, K: 3, Stride: 1},
		{Cin: 512, H: 13, W: 13, Cout: 255, K: 1, Stride: 1},
		{Cin: 256, H: 13, W: 13, Cout: 128, K: 1, Stride: 1},
		{Cin: 384, H: 26, W: 26, Cout: 256, K: 3, Stride: 1},
		{Cin: 256, H: 26, W: 26, Cout: 255, K: 1, Stride: 1},
	}
	return []Network{resnet18, resnet34, resnet50, yolo}
}

// VTAConfig parameterizes an inference run.
type VTAConfig struct {
	Network string
	// SpatialScale and ChannelScale shrink the network so the gem5+RTL
	// baseline stays tractable (documented in EXPERIMENTS.md).
	SpatialScale int // divide H,W (default 4)
	ChannelScale int // divide Cin/Cout (default 4)
	Processes    int // independent inference processes (multi-VTA runs)
	Seed         uint64
}

func (c VTAConfig) withDefaults() VTAConfig {
	if c.SpatialScale == 0 {
		c.SpatialScale = 4
	}
	if c.ChannelScale == 0 {
		c.ChannelScale = 4
	}
	if c.Processes == 0 {
		c.Processes = 1
	}
	return c
}

// VTABenches returns the deep-learning benchmarks.
func VTABenches() []Bench {
	mk := func(name string, cfg VTAConfig) Bench {
		cfg = cfg.withDefaults()
		return Bench{
			Name:    name,
			Model:   core.AccelVTA,
			Devices: cfg.Processes,
			Threads: cfg.Processes,
			Build:   func(ctx *core.Ctx) app.Program { return VTAProgram(cfg, ctx) },
		}
	}
	return []Bench{
		mk("vta-resnet18", VTAConfig{Network: "resnet18", Seed: 11}),
		mk("vta-resnet34", VTAConfig{Network: "resnet34", Seed: 12}),
		mk("vta-resnet50", VTAConfig{Network: "resnet50", Seed: 13}),
		// The x2 variant halves channels instead of quartering them, so
		// the compute:offload ratio resembles the real network's — the
		// §6.4 design-sweep workload (see EXPERIMENTS.md).
		mk("vta-resnet50-x2", VTAConfig{Network: "resnet50", Seed: 13, ChannelScale: 2}),
		mk("vta-yolov3-tiny", VTAConfig{Network: "yolov3-tiny", Seed: 14}),
		mk("vta-matmul", VTAConfig{Network: "matmul", Seed: 15}),
		mk("vta-resnet18-mp4", VTAConfig{Network: "resnet18", Processes: 4, Seed: 16}),
		mk("vta-resnet18-mp8", VTAConfig{Network: "resnet18", Processes: 8, Seed: 17}),
	}
}

// gemmOf lowers a (scaled) layer to a GEMM shape (im2col).
func gemmOf(l Layer, spatial, chans int) (m, n, k int) {
	oh, ow := l.outDims()
	oh, ow = max1(oh/spatial), max1(ow/spatial)
	cin := max16(l.Cin / chans)
	if l.Cin <= 3 {
		cin = l.Cin // input channels are not scalable
	}
	cout := max16(l.Cout / chans)
	m = roundUp16(oh * ow)
	k = cin * l.K * l.K
	n = cout
	// The compiler K-splits oversized operands; only the accumulator
	// footprint bounds N.
	for 2*16*n > vta.AccBufSize {
		n /= 2
	}
	return m, n, max1(k)
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
func max16(v int) int {
	if v < 16 {
		return 16
	}
	return v
}
func roundUp16(v int) int { return (v + 15) &^ 15 }

// VTAProgram builds the inference application: for each layer, the CPU
// does im2col (charged compute), launches the GEMM on VTA, and waits.
func VTAProgram(cfg VTAConfig, ctx *core.Ctx) app.Program {
	cfg = cfg.withDefaults()
	var layers []Layer
	if cfg.Network == "matmul" {
		// A single large GEMM benchmark (Fig. 4's accelerator-bound case).
		layers = nil
	} else {
		found := false
		for _, n := range Networks() {
			if n.Name == cfg.Network {
				layers, found = n.Layers, true
				break
			}
		}
		if !found {
			panic("workloads: unknown network " + cfg.Network)
		}
	}

	return app.Program{
		Name: "vta-" + cfg.Network,
		Main: func(e app.Env) {
			var wg app.WaitGroup
			wg.Add(cfg.Processes)
			for p := 0; p < cfg.Processes; p++ {
				p := p
				e.Spawn("inference", func(we app.Env) {
					runInference(we, cfg, ctx, p, layers)
					wg.Done(we)
				})
			}
			wg.Wait(e)
		},
	}
}

func runInference(e app.Env, cfg VTAConfig, ctx *core.Ctx, proc int, layers []Layer) {
	rng := xrand.New(cfg.Seed ^ uint64(proc)<<16)
	// Per-process arena slice.
	arena := ctx.Arena + mem.Addr(proc)*(8<<20)
	drv := vta.NewDriver(ctx.MMIO[proc], ctx.TaskBufs[proc], arena, 16)
	progArena := arena + 4<<20

	drv.ProgArena = progArena
	dataBase := arena

	tasks := gemmTasks(cfg, layers)

	// Setup: stage operands (fast-forwarded, as with gem5 checkpoints).
	e.SlipStream(func() { stageOperands(e.Mem(), rng, dataBase, tasks) })

	for i, t := range tasks {
		// im2col + quantization + layout transform on the CPU: ~8
		// operations per A element at ~4 ops/cycle (the TVM runtime's
		// pre-processing).
		elems := int64(t.M) * int64(t.K)
		e.Compute(cyclesWork(ctx.Clock, 2*elems, isa.MemHeavyMix, elems, 1.55,
			uint64(i)<<8^cfg.Seed))
		prog, err := vta.Compile(t)
		if err != nil {
			panic("workloads: " + err.Error())
		}
		drv.Launch(e, prog)
		drv.WaitAll(e, 0)
	}

	// Classifier head / NMS on the CPU.
	e.ComputeFor(20 * vclock.Microsecond)
}

// gemmTasks lowers the network (or the single large GEMM of the matmul
// benchmark, Fig. 4's accelerator-bound case) to the tasks one inference
// launches; stageOperands gives them their buffers.
func gemmTasks(cfg VTAConfig, layers []Layer) []vta.GemmTask {
	if cfg.Network == "matmul" {
		return []vta.GemmTask{{M: 192, N: 128, K: 384, Shift: 7}}
	}
	tasks := make([]vta.GemmTask, 0, len(layers))
	for _, l := range layers {
		m, n, k := gemmOf(l, cfg.SpatialScale, cfg.ChannelScale)
		tasks = append(tasks, vta.GemmTask{M: m, N: n, K: k, Shift: 7, ReLU: true})
	}
	return tasks
}

// stageOperands lays the tasks' A, B and C buffers out from base, each
// rounded up to whole pages, and maps the A and B operand blobs there.
func stageOperands(m *mem.Memory, rng *xrand.Stream, base mem.Addr, tasks []vta.GemmTask) {
	off := base
	for i := range tasks {
		t := &tasks[i]
		t.A = off
		off += mem.Addr(t.M*t.K+4095) &^ 4095
		t.B = off
		off += mem.Addr(t.N*t.K+4095) &^ 4095
		t.C = off
		off += mem.Addr(t.M*t.N+4095) &^ 4095
		// Operand blocks are derived per *shape*, not per layer:
		// synthetic weights carry no timing information, and
		// shape-keyed blocks let repeated layers (ResNet's stacked
		// blocks) reuse one generated block and one functional
		// interpretation in the device's plan memo.
		m.Map(t.A, randI8(rng.Derive(fmt.Sprintf("a%dx%d", t.M, t.K)), t.M*t.K))
		m.Map(t.B, randI8(rng.Derive(fmt.Sprintf("b%dx%d", t.N, t.K)), t.N*t.K))
	}
}

// randI8Memo caches generated operand blocks across runs, already in the
// byte layout StoreOperands would produce, as blobs that every run maps
// instead of copying. The output of randI8 is a pure function of (stream
// state, n); the same operands are regenerated by every repeated run,
// checkpoint replay, and engine comparison of a workload.
var randI8Memo = devkit.NewMemo[randI8Key](func(b *mem.Blob) int64 { return int64(b.Len()) })

type randI8Key struct {
	state uint64
	n     int
}

// randI8 fills n bytes from a throwaway derived stream. Callers must not
// reuse rng afterwards: on a memo hit the stream is not advanced.
func randI8(rng *xrand.Stream, n int) *mem.Blob {
	return randI8Memo.Get(randI8Key{state: rng.State(), n: n}, func() *mem.Blob {
		buf := make([]byte, n)
		for i := range buf {
			// byte(rng.Intn(256) - 128) with no modulus to fold: x mod 256
			// − 128 is x's low byte with the top bit flipped, and that byte
			// has the bit pattern of the int8 the functional core reads.
			buf[i] = byte(rng.Uint64()) ^ 0x80
		}
		return mem.NewBlob(buf)
	})
}

// CPUInferenceProgram is the CPU-only fallback (the paper's Q1/Q2
// comparison: ResNet-50 on the Xeon vs on VTA). The conv work is charged
// at the CPU's native int8 GEMM rate.
func CPUInferenceProgram(cfg VTAConfig, ctx *core.Ctx) app.Program {
	cfg = cfg.withDefaults()
	var layers []Layer
	for _, n := range Networks() {
		if n.Name == cfg.Network {
			layers = n.Layers
		}
	}
	return app.Program{
		Name: "cpu-" + cfg.Network,
		Main: func(e app.Env) {
			for p := 0; p < cfg.Processes; p++ {
				for i, l := range layers {
					m, n, k := gemmOf(l, cfg.SpatialScale, cfg.ChannelScale)
					macs := int64(m) * int64(n) * int64(k)
					// ~20 int8 MACs/cycle with VNNI on the native host.
					e.Compute(cyclesWork(ctx.Clock, macs/20, isa.ComputeMix,
						int64(m*k+n*k), 2.2, uint64(i)))
				}
				e.ComputeFor(20 * vclock.Microsecond)
			}
		},
	}
}
