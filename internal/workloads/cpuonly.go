package workloads

import (
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/isa"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// CPUOnlyBenches are the accelerator benchmarks "with all calls to
// accelerators removed" (§6.5's breakdown of NEX vs gem5 error against
// true native execution): the same applications performing the offloaded
// work on the CPU.
func CPUOnlyBenches() []Bench {
	var out []Bench

	out = append(out, Bench{
		Name: "cpu-jpeg-decode", Model: core.AccelNone, Threads: 1,
		Build: func(ctx *core.Ctx) app.Program {
			return cpuJPEGProgram(JPEGConfig{Images: 20, Seed: 101}.withDefaults(), ctx)
		},
	})
	resnet18, _, resnet50, _ := networks()
	for _, net := range []network{resnet18, resnet50} {
		out = append(out, Bench{
			Name: "cpu-vta-" + net.Name, Model: core.AccelNone, Threads: 1,
			Build: func(ctx *core.Ctx) app.Program {
				return cpuInferenceProgram(vtaConfig{Net: net, Seed: 11}, ctx)
			},
		})
	}
	for _, pb := range protoBenches[:2] {
		pb := pb
		out = append(out, Bench{
			Name: "cpu-" + pb.name, Model: core.AccelNone, Threads: 1,
			Build: func(ctx *core.Ctx) app.Program {
				return cpuSerializeProgram(pb, ctx)
			},
		})
	}
	return out
}

// cpuJPEGProgram decodes and filters the image corpus entirely on the
// CPU: entropy decoding at ~2 cycles/bit plus IDCT/color at ~45
// cycles/pixel, then the same matrix_filter_2d post-processing.
func cpuJPEGProgram(cfg JPEGConfig, ctx *core.Ctx) app.Program {
	return app.Program{
		Main: func(e app.Env) {
			rng := xrand.New(cfg.Seed | 1)
			type imgJob struct {
				bits int64
				w, h int
			}
			var jobs []imgJob
			e.SlipStream(func() {
				// Encode sizes only — the CPU path needs the workload
				// shape, not staged device buffers.
				for i := 0; i < cfg.Images; i++ {
					w := cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1)
					h := cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1)
					w, h = w&^7, h&^7
					// Entropy payload estimate: ~1.2 bits/pixel at our
					// qualities.
					bits := int64(w) * int64(h) * 12 / 10
					jobs = append(jobs, imgJob{bits: bits, w: w, h: h})
				}
				e.ComputeFor(50 * vclock.Microsecond)
			})
			for i, j := range jobs {
				decodeCycles := j.bits*2 + int64(j.w)*int64(j.h)*45
				e.Compute(cyclesWork(ctx.Clock, decodeCycles, isa.DefaultMix,
					int64(j.w*j.h*3), 1.75, cfg.Seed^uint64(i)))
				matrixFilter2D(e, ctx.Clock, j.w, j.h, cfg.FilterPasses)
			}
		},
	}
}
