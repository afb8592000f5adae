// Quickstart: simulate a JPEG-decoding hardware-software stack end to
// end with NEX+DSim, in a few dozen lines.
//
// The application stages a JPEG bitstream in simulated memory, submits a
// decode task to the accelerator through its driver (task-buffer
// descriptor + MMIO doorbell), polls for completion, and post-processes
// the pixels on the CPU. The same program would run unmodified under the
// gem5-style or reference engines — switch core.Config.Host to compare.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"nexsim/internal/accel/jpeg"
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/mem"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

func main() {
	rec := trace.New()

	// Assemble the full stack: NEX host engine + DSim JPEG accelerator
	// behind the default PCIe fabric and LLC-served DMAs.
	sys := core.Build(core.Config{
		Host:  core.HostNEX,
		Accel: core.AccelDSim,
		Model: core.AccelJPEG,
		Cores: 8,
		Trace: rec,
		Seed:  1,
	})

	// Prepare an image and its JPEG bitstream (this is test input
	// generation, not part of the simulated application).
	img := jpeg.NewImage(96, 64)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := (y*img.W + x) * 3
			img.Pix[i] = byte(x * 255 / img.W)
			img.Pix[i+1] = byte(y * 255 / img.H)
			img.Pix[i+2] = 128
		}
	}
	bitstream := jpeg.Encode(img, 85, jpeg.Sub420)

	srcAddr := sys.Ctx.Arena
	dstAddr := sys.Ctx.Arena + 1<<20

	// The simulated application: driver + polling + CPU post-processing.
	prog := app.Program{
		Main: func(e app.Env) {
			e.Mem().WriteAt(srcAddr, bitstream)

			drv := jpeg.NewDriver(sys.Ctx.MMIO[0], sys.Ctx.TaskBufs[0], 4)
			drv.Submit(e, jpeg.Desc{
				Src: srcAddr, SrcLen: uint32(len(bitstream)), Dst: dstAddr,
			})
			drv.WaitAll(e, 5*vclock.Microsecond)

			// Post-process on the CPU: ~1ms of filtering.
			e.ComputeFor(1 * vclock.Millisecond)
		},
	}

	start := time.Now()
	res := sys.Run(prog)
	wall := time.Since(start)

	// Check the decode output really landed in simulated memory.
	out := make([]byte, img.W*img.H*3)
	sys.Ctx.Mem.ReadAt(mem.Addr(dstAddr), out)
	nonzero := 0
	for _, b := range out {
		if b != 0 {
			nonzero++
		}
	}

	fmt.Printf("simulated end-to-end time: %v\n", res.SimTime)
	fmt.Printf("host wall-clock time:      %v (slowdown %.1fx)\n",
		wall.Round(time.Microsecond), res.Slowdown())
	fmt.Printf("decoded pixels in memory:  %d/%d bytes non-zero\n", nonzero, len(out))
	fmt.Printf("NEX stats: %+v\n", res.NEXStats)
	fmt.Println("--- coarse-grained trace ---")
	rec.Dump(os.Stdout)
}
