// sketch-accel demonstrates the paper's second development use case
// (§6.4, "Sketching accelerator design with DSim"): after the
// jpeg-pipeline what-if analysis suggested a matrix_filter_2d
// accelerator is worth building, the developer sketches its
// microarchitecture as a Latency Petri Net — no RTL — writes a trivial
// functional model, couples the two with dsim.Base, and simulates the
// full stack with the sketched accelerator actually doing the work.
//
// It doubles as the device kit's tutorial (internal/accel/devkit,
// DESIGN.md §4.4): the device below is a descriptor layout, a functional
// model in Doorbell and an LPN, nothing else — the register bank, task
// lifecycle, statistics and interrupt gating come with dsim.Base, and
// the software side is the kit's Driver.
//
// The sketch: a 3x3 convolution engine with a line-buffer loader, four
// parallel MAC lanes, and a writeback unit, fed by descriptor + doorbell
// like the other devices. Running it end to end answers whether the
// CompressT estimate from the what-if phase holds once DMA traffic and
// queueing are modeled.
//
// Run: go run ./examples/sketch-accel
package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/dsim"
	"nexsim/internal/hostkit"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// ---- The sketched device -------------------------------------------------

// filterDesc is the task descriptor: src (8) | dst (8) | w (4) | h (4).
const filterDescSize = 24

// encodeFilterDesc is the driver's half of the descriptor codec.
func encodeFilterDesc(src, dst mem.Addr, w, h int) [filterDescSize]byte {
	var desc [filterDescSize]byte
	binary.LittleEndian.PutUint64(desc[0:], uint64(src))
	binary.LittleEndian.PutUint64(desc[8:], uint64(dst))
	binary.LittleEndian.PutUint32(desc[16:], uint32(w))
	binary.LittleEndian.PutUint32(desc[20:], uint32(h))
	return desc
}

// filterIRQ is the completion vector (unused here: the driver polls).
const filterIRQ = 13

// filterDevice is a DSim model sketched entirely with lpnlang: it
// convolves an RGB raster with a fixed 3x3 kernel.
type filterDevice struct {
	dsim.Base

	taskQ      *lpn.Place
	rowPlans   devkit.Queue[rowPlan]
	tokScratch []lpn.Token // reused by dispatch; consumed synchronously
}

type rowPlan struct {
	rows     int
	rowBytes int64
}

// rowTag labels the per-row DMA queues.
const (
	tagDesc = "DESC"
	tagIn   = "ROWS_IN"
	tagOut  = "ROWS_OUT"
)

func newFilterDevice(clk vclock.Hz, lanes int64) *filterDevice {
	d := &filterDevice{}
	b := lpnlang.NewBuilder("filter2d", clk)

	d.taskQ = b.Queue("tasks", 0)
	descResp := b.Queue("descResp", 0)
	rowQ := b.Queue("rows", 0)
	fetched := b.Queue("fetched", 0)
	convolved := b.Queue("convolved", 0)
	stored := b.Queue("stored", 0)

	// Descriptor fetch.
	b.Stage("desc", d.taskQ, nil, b.Cycles(8),
		lpnlang.Effect(d.EmitDMA(tagDesc, descResp)))

	// Dispatch one token per image row (attrs: [rowBytes, lastRow]).
	b.Stage("dispatch", descResp, rowQ, b.Cycles(2),
		lpnlang.OutTokens(func(f *lpn.Firing, done vclock.Time) []lpn.Token {
			plan := *d.rowPlans.Front()
			d.rowPlans.Pop()
			out := d.tokScratch[:0]
			for i := 0; i < plan.rows; i++ {
				last := int64(0)
				if i == plan.rows-1 {
					last = 1
				}
				out = append(out, lpn.Tok(done, plan.rowBytes, last))
			}
			d.tokScratch = out
			return out
		}))

	// Line-buffer loader: one DMA per row, 16 bytes/cycle fill.
	b.Stage("load", rowQ, nil, b.CyclesAttr(4, 0, 0),
		lpnlang.Effect(d.EmitDMA(tagIn, fetched)))

	// Convolution: `lanes` parallel MAC lanes, 9 MACs per output byte.
	b.Stage("conv", fetched, convolved, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return 8 + f.Tok(0).Attrs[0]*9/lanes
	}))

	// Writeback.
	b.Stage("store", convolved, nil, b.CyclesAttr(4, 0, 0),
		lpnlang.Effect(d.EmitDMA(tagOut, stored)))

	// Completion: the last row of a task completes it.
	b.Stage("finish", stored, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			if f.Tok(0).Attrs[1] == 1 {
				d.Complete(f.Time)
			}
		}))

	d.Init("filter2d", filterIRQ, d, b.MustBuild())
	return d
}

// Doorbell implements devkit.Model: the functional track of one task.
func (d *filterDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	d.Start(at)
	rec := d.Recorder()
	descBytes := rec.ReadDMA(tagDesc, descAddr, filterDescSize)
	src := mem.Addr(binary.LittleEndian.Uint64(descBytes[0:]))
	dst := mem.Addr(binary.LittleEndian.Uint64(descBytes[8:]))
	w := int(binary.LittleEndian.Uint32(descBytes[16:]))
	h := int(binary.LittleEndian.Uint32(descBytes[20:]))

	// Functionality track: 3x3 box-ish convolution over RGB, row by row,
	// recording the DMA trace for the LPN to replay.
	rowBytes := w * 3
	img := make([][]byte, h)
	for y := 0; y < h; y++ {
		img[y] = rec.ReadDMA(tagIn, src+mem.Addr(y*rowBytes), rowBytes)
	}
	kernel := [3][3]int32{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}} // /16
	for y := 0; y < h; y++ {
		out := make([]byte, rowBytes)
		for x := 0; x < w; x++ {
			for c := 0; c < 3; c++ {
				var sum int32
				for ky := -1; ky <= 1; ky++ {
					for kx := -1; kx <= 1; kx++ {
						yy, xx := y+ky, x+kx
						if yy < 0 {
							yy = 0
						}
						if yy >= h {
							yy = h - 1
						}
						if xx < 0 {
							xx = 0
						}
						if xx >= w {
							xx = w - 1
						}
						sum += int32(img[yy][xx*3+c]) * kernel[ky+1][kx+1]
					}
				}
				out[x*3+c] = byte(sum / 16)
			}
		}
		rec.WriteDMA(tagOut, dst+mem.Addr(y*rowBytes), out)
	}

	d.rowPlans.Push(rowPlan{rows: h, rowBytes: int64(rowBytes)})
	d.Net.Inject(d.taskQ, lpn.Tok(at, int64(h)))
}

// ---- The experiment ------------------------------------------------------

func main() {
	const (
		imgW, imgH = 96, 96
		images     = 16
	)

	// Baseline: the filter on the CPU (~8 MACs/cycle), as in the
	// jpeg-pipeline what-if.
	macs := int64(imgW) * imgH * 3 * 9
	cpuPerImage := (3 * vclock.GHz).CyclesDur(macs / 8)

	runWithSketch := func(lanes int64) (vclock.Duration, time.Duration) {
		dev := newFilterDevice(2*vclock.GHz, lanes)
		sys := core.Build(core.Config{Host: core.HostNEX, Cores: 8, Seed: 42})
		// Attach the sketched device by hand (it is not one of the
		// catalogued models): an MMIO window and the default memory path.
		eng := sys.NEXEngine()
		mmio := mem.Addr(0x9000_0000)
		tb := sys.Ctx.Mem.Alloc("filter-taskbuf", 4096)
		db := &hostkit.Binding{Device: dev, MMIOBase: mmio, MMIOSize: 0x1000}
		dev.SetHost(eng.HostFor(db))
		eng.Attach(db)

		drv := devkit.NewDriver(mmio, tb.Base, 1, filterDescSize, filterIRQ)
		start := time.Now()
		res := sys.Run(app.Program{Main: func(e app.Env) {
			rng := xrand.New(1)
			src := sys.Ctx.Arena
			raster := make([]byte, imgW*imgH*3)
			for i := range raster {
				raster[i] = byte(rng.Intn(256))
			}
			e.Mem().WriteAt(src, raster)
			for i := 0; i < images; i++ {
				dst := src + mem.Addr(1+i)<<20
				desc := encodeFilterDesc(src, dst, imgW, imgH)
				drv.Doorbell(e, drv.Post(e, desc[:]))
				drv.WaitAll(e, 0)
			}
		}})
		return res.SimTime, time.Since(start)
	}

	cpuTotal := cpuPerImage * images
	fmt.Printf("matrix_filter_2d, %d images of %dx%d\n\n", images, imgW, imgH)
	fmt.Printf("CPU (native, 8 MACs/cycle):          %v\n", cpuTotal)

	// Sketch v1: 4 MAC lanes. The full-stack simulation immediately
	// shows it LOSES to the CPU — the what-if bound is unreachable with
	// this datapath.
	v1, wall1 := runWithSketch(4)
	fmt.Printf("sketch v1 (4 MAC lanes):             %v  (%.2fx; simulated in %v)\n",
		v1, float64(cpuTotal)/float64(v1), wall1.Round(time.Millisecond))

	// Sketch v2: widen to 32 lanes — one edit to the LPN, another
	// sub-second simulation.
	v2, wall2 := runWithSketch(32)
	fmt.Printf("sketch v2 (32 MAC lanes):            %v  (%.2fx; simulated in %v)\n",
		v2, float64(cpuTotal)/float64(v2), wall2.Round(time.Millisecond))

	fmt.Println("\nEach iteration is one LPN edit plus a sub-second full-stack")
	fmt.Println("simulation: the interactive co-design loop of §6.4, with DMA")
	fmt.Println("traffic, driver overhead and pipeline queueing actually modeled —")
	fmt.Println("no RTL written. The jpeg-pipeline example's JumpT probe supplies")
	fmt.Println("the upper bound these sketches are measured against.")
}
