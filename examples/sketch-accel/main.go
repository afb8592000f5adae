// sketch-accel demonstrates the paper's second development use case
// (§6.4, "Sketching accelerator design with DSim"): after the what-if
// analysis (`paperbench -exp whatif`) suggested a matrix_filter_2d
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

// filterDevice is a DSim model sketched entirely with lpnlang: it
// convolves an RGB raster with a fixed 3x3 kernel.
type filterDevice struct {
	dsim.Base

	taskQ      *lpn.Place
	rows       []filterRow // in-flight tasks' row plans; row tokens index it
	tokScratch []lpn.Token // reused by dispatch; consumed synchronously
}

// filterRow is the functional track's plan for one image row: the DMAs
// the LPN replays for it.
type filterRow struct {
	src, dst mem.Addr
	out      []byte // the row's filtered pixels
	last     bool   // final row of its task
}

func newFilterDevice(clk vclock.Hz, lanes int64) *filterDevice {
	d := &filterDevice{}
	b := lpnlang.NewBuilder("filter2d", clk)

	// Token attributes: [first row, row count, descriptor address] for a
	// task, [rows index] for a row.
	d.taskQ = b.Queue("tasks", 0)
	descResp := b.Queue("descResp", 0)
	rowQ := b.Queue("rows", 0)
	fetched := b.Queue("fetched", 0)
	convolved := b.Queue("convolved", 0)
	stored := b.Queue("stored", 0)

	// Descriptor fetch.
	b.Stage("desc", d.taskQ, nil, b.Cycles(8),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.pass(descResp, f, d.DMA(f.Time, mem.Read, mem.Addr(f.Tok(0).Attrs[2]), filterDescSize, nil))
		}))

	// Dispatch one token per image row.
	b.Stage("dispatch", descResp, rowQ, b.Cycles(2),
		lpnlang.OutTokens(func(f *lpn.Firing, done vclock.Time) []lpn.Token {
			t := f.Tok(0)
			out := d.tokScratch[:0]
			for i := t.Attrs[0]; i < t.Attrs[0]+t.Attrs[1]; i++ {
				out = append(out, lpn.Tok(done, i))
			}
			d.tokScratch = out
			return out
		}))

	// Line-buffer loader: one DMA per row.
	b.Stage("load", rowQ, nil, b.Cycles(4),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			r := d.rowOf(f)
			d.pass(fetched, f, d.DMA(f.Time, mem.Read, r.src, len(r.out), nil))
		}))

	// Convolution: `lanes` parallel MAC lanes, 9 MACs per output byte.
	b.Stage("conv", fetched, convolved, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return 8 + int64(len(d.rowOf(f).out))*9/lanes
	}))

	// Writeback: the row's pixels land in memory with its DMA.
	b.Stage("store", convolved, nil, b.Cycles(4),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			r := d.rowOf(f)
			d.pass(stored, f, d.DMA(f.Time, mem.Write, r.dst, len(r.out), r.out))
		}))

	// Completion: the last row of a task completes it.
	b.Stage("finish", stored, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			if d.rowOf(f).last {
				d.Complete(f.Time)
			}
		}))

	d.Init("filter2d", d, b.MustBuild())
	return d
}

// rowOf returns the plan entry the firing's row token names.
func (d *filterDevice) rowOf(f *lpn.Firing) *filterRow { return &d.rows[f.Tok(0).Attrs[0]] }

// pass hands the firing's token on to p once its DMA completes at comp,
// so the next stage waits for the response.
func (d *filterDevice) pass(p *lpn.Place, f *lpn.Firing, comp vclock.Time) {
	d.Net.Inject(p, lpn.Token{TS: comp, Attrs: f.Tok(0).Attrs})
}

// Doorbell implements devkit.Model: the functional track of one task,
// which plans the rows whose DMAs the LPN replays.
func (d *filterDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	if d.Idle() {
		// No in-flight token names a row; reuse the table.
		d.rows = d.rows[:0]
	}
	d.Start(at)
	var descBytes [filterDescSize]byte
	d.Host.ZeroCostRead(descAddr, descBytes[:])
	src := mem.Addr(binary.LittleEndian.Uint64(descBytes[0:]))
	dst := mem.Addr(binary.LittleEndian.Uint64(descBytes[8:]))
	w := int(binary.LittleEndian.Uint32(descBytes[16:]))
	h := int(binary.LittleEndian.Uint32(descBytes[20:]))

	// Functionality track: 3x3 box-ish convolution over RGB, row by row.
	rowBytes := w * 3
	img := make([][]byte, h)
	for y := 0; y < h; y++ {
		img[y] = make([]byte, rowBytes)
		d.Host.ZeroCostRead(src+mem.Addr(y*rowBytes), img[y])
	}
	kernel := [3][3]int32{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}} // /16
	first := len(d.rows)
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
		d.rows = append(d.rows, filterRow{
			src: src + mem.Addr(y*rowBytes), dst: dst + mem.Addr(y*rowBytes),
			out: out, last: y == h-1,
		})
	}
	d.Net.Inject(d.taskQ, lpn.Tok(at, int64(first), int64(h), int64(descAddr)))
}

// ---- The experiment ------------------------------------------------------

func main() {
	const (
		imgW, imgH = 96, 96
		images     = 16
	)

	// Baseline: the filter on the CPU (~8 MACs/cycle), as in the
	// what-if analysis (paperbench -exp whatif).
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

		drv := devkit.NewDriver(mmio, tb.Base, 1, filterDescSize)
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
	fmt.Println("no RTL written. The JumpT probe of paperbench -exp whatif supplies")
	fmt.Println("the upper bound these sketches are measured against.")
}
