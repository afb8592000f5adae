package workloads

import (
	"fmt"
	"iter"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/accel/jpeg"
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
	"nexsim/internal/xrand"
)

// JPEGConfig parameterizes the image-decoding application.
type JPEGConfig struct {
	Images       int // corpus size (paper: 50 from Flickr/Div2k; scaled default 24)
	Threads      int // worker threads, one accelerator each (1, 2, 4, 8)
	MinSize      int // smallest image edge
	MaxSize      int // largest image edge
	FilterPasses int // matrix_filter_2d passes per image (§6.4 uses heavier post-processing)
	Seed         uint64

	// Compress wraps matrix_filter_2d in a CompressT block with the
	// given hypothetical acceleration factor (§6.4's what-if analysis).
	Compress float64
	// ProbeRealistic derives the acceleration factor per image with a
	// JumpT-instrumented memory-bound estimate instead of Compress.
	ProbeRealistic bool
}

func (c JPEGConfig) withDefaults() JPEGConfig {
	if c.Images == 0 {
		c.Images = 20
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.MinSize == 0 {
		c.MinSize = 64
	}
	if c.MaxSize == 0 {
		c.MaxSize = 120
	}
	if c.FilterPasses == 0 {
		c.FilterPasses = 4
	}
	return c
}

// JPEGBenches returns the paper's JPEG benchmarks.
func JPEGBenches() []Bench {
	mk := func(name string, cfg JPEGConfig) Bench {
		cfg = cfg.withDefaults()
		return Bench{
			Name:    name,
			Model:   core.AccelJPEG,
			Devices: cfg.Threads,
			Threads: cfg.Threads,
			Build:   func(ctx *core.Ctx) app.Program { return jpegProgram(cfg, ctx) },
		}
	}
	filter := JPEGConfig{Images: 32, Threads: 8, FilterPasses: 16, Seed: 777}
	compress, probe := filter, filter
	compress.Compress = 10
	probe.ProbeRealistic = true
	return []Bench{
		mk("jpeg-decode", JPEGConfig{Images: 20, Threads: 1, Seed: 101}),
		mk("jpeg-mt.2", JPEGConfig{Images: 20, Threads: 2, Seed: 102}),
		mk("jpeg-mt.4", JPEGConfig{Images: 20, Threads: 4, Seed: 103}),
		mk("jpeg-mt.8", JPEGConfig{Images: 20, Threads: 8, Seed: 104}),
		// §6.4's what-if application: eight decoders whose heavy
		// matrix_filter_2d dominates, as is, under a hypothetical 10x
		// CompressT offload, and under the JumpT-probed realistic bound.
		mk("jpeg-filter.8", filter),
		mk("jpeg-filter.8-compress", compress),
		mk("jpeg-filter.8-probe", probe),
	}
}

// jpegImage is one staged corpus entry.
type jpegImage struct {
	src    mem.Addr
	srcLen int
	dst    mem.Addr
	w, h   int
}

// jpegProgram builds the decode + post-process application: threads
// repeatedly fetch image tasks from a shared queue (paper §6.1), decode
// on their accelerator, and run matrix_filter_2d on the CPU.
func jpegProgram(cfg JPEGConfig, ctx *core.Ctx) app.Program {
	cfg = cfg.withDefaults()
	return app.Program{
		Main: func(e app.Env) {
			var corpus []jpegImage
			// Setup: generate and stage the corpus. SlipStream-ed, as the
			// paper fast-forwards application setup (§6.1).
			e.SlipStream(func() {
				corpus = stageJPEGCorpus(e, cfg, ctx)
				// Setup cost: loading the corpus into memory (~2
				// cycles/pixel of buffer handling; the images come from a
				// dataset, so no encoding happens in the application).
				var px int64
				for _, im := range corpus {
					px += int64(im.w * im.h)
				}
				e.Compute(isa.Segment(ctx.Clock.CyclesDur(px*2),
					ctx.Clock, isa.ComputeMix, px*3, 1.6, cfg.Seed))
			})

			queue := &app.Queue{}
			for i := range corpus {
				queue.Push(e, i)
			}
			queue.Close(e)

			var wg app.WaitGroup
			wg.Add(cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				t := t
				e.Spawn("jpegworker", func(we app.Env) {
					drv := jpeg.NewDriver(ctx.MMIO[t], ctx.TaskBufs[t], 16)
					for {
						v, ok := queue.Pop(we)
						if !ok {
							break
						}
						im := corpus[v.(int)]
						drv.Submit(we, jpeg.Desc{
							Src: im.src, SrcLen: uint32(im.srcLen), Dst: im.dst,
						})
						drv.WaitAll(we, 0)
						postProcess(we, ctx.Clock, cfg, im.w, im.h)
					}
					wg.Done(we)
				})
			}
			wg.Wait(e)
		},
	}
}

// corpusMemo memoizes the synthesized + encoded corpora per corpusKey:
// corpus generation is deterministic per seed and re-staged by every
// engine run of the same benchmark (DESIGN.md §1's substrate-cost note).
// Entries are immutable once stored.
var corpusMemo = devkit.NewMemo[corpusKey](func(entries []corpusEntry) int64 {
	cost := int64(0)
	for _, en := range entries {
		cost += int64(en.stream.Len())
	}
	return cost
})

// corpusKey is every JPEGConfig field a corpus depends on (after
// withDefaults); configs that differ only in how the corpus is decoded
// and post-processed share one.
type corpusKey struct {
	images, minSize, maxSize int
	seed                     uint64
}

type corpusEntry struct {
	stream *mem.Blob // the encoded image, mapped by every run that stages it
	w, h   int
}

// jpegCorpus returns cfg's encoded corpus, synthesizing and encoding it
// on first sight in the process.
func jpegCorpus(cfg JPEGConfig) []corpusEntry {
	cfg = cfg.withDefaults()
	key := corpusKey{images: cfg.Images, minSize: cfg.MinSize, maxSize: cfg.MaxSize, seed: cfg.Seed}
	return corpusMemo.Get(key, func() (entries []corpusEntry) {
		for src := range JPEGSources(cfg) {
			data := jpeg.EncodeRestart(src.Img, src.Quality, src.Sub, src.Restart)
			entries = append(entries, corpusEntry{stream: mem.NewBlob(data), w: src.Img.W, h: src.Img.H})
		}
		return entries
	})
}

// JPEGSource is one corpus image before encoding: its raster and the
// encoder settings the corpus drew for it.
type JPEGSource struct {
	Img     *jpeg.Image
	Quality int
	Sub     jpeg.Subsampling
	Restart int // DRI interval in MCUs, 0 for none
}

// JPEGSources synthesizes cfg's corpus (cfg.Images images with edges in
// [MinSize, MaxSize] rounded down to whole blocks, drawn from Seed), one
// image at a time.
func JPEGSources(cfg JPEGConfig) iter.Seq[JPEGSource] {
	return func(yield func(JPEGSource) bool) {
		for _, d := range jpegDraws(cfg) {
			if !yield(JPEGSource{Img: synthImage(d.w, d.h, d.rng), Quality: d.quality, Sub: d.sub, Restart: d.restart}) {
				return
			}
		}
	}
}

// jpegDraw is what a corpus draws for one image: its size, the stream
// its raster is synthesized from, and its encoder settings.
type jpegDraw struct {
	w, h             int
	rng              *xrand.Stream
	quality, restart int
	sub              jpeg.Subsampling
}

// jpegDraws makes cfg's corpus draws, in order. Synthesis draws only
// from each image's derived stream, so drawing every image's parameters
// before synthesizing any leaves them what they were.
func jpegDraws(cfg JPEGConfig) []jpegDraw {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed | 1)
	draws := make([]jpegDraw, cfg.Images)
	for i := range draws {
		d := &draws[i]
		d.w = cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1)
		d.h = cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1)
		d.w, d.h = d.w&^7, d.h&^7
		d.rng = rng.Derive(fmt.Sprintf("img%d", i))
		d.sub = jpeg.Sub420
		if rng.Intn(3) == 0 {
			d.sub = jpeg.Sub444
		}
		if rng.Intn(4) == 0 {
			d.restart = 2 + rng.Intn(6) // some images carry DRI/RSTn markers
		}
		d.quality = 75 + rng.Intn(18)
	}
	return draws
}

// stageJPEGCorpus maps the image corpus into the arena; returns the
// staged entries.
func stageJPEGCorpus(e app.Env, cfg JPEGConfig, ctx *core.Ctx) []jpegImage {
	next := ctx.Arena
	var corpus []jpegImage
	for _, en := range jpegCorpus(cfg) {
		src := next
		next += mem.Addr(en.stream.Len()+4095) &^ 4095
		e.Mem().Map(src, en.stream)
		dst := next
		next += mem.Addr(en.w*en.h*3+4095) &^ 4095
		corpus = append(corpus, jpegImage{src: src, srcLen: en.stream.Len(), dst: dst, w: en.w, h: en.h})
	}
	return corpus
}

// synthImage generates deterministic photo-like content (gradients +
// soft blobs) so the entropy coder has realistic work. The gradients come
// first, from per-column, per-row and per-diagonal tables; then each blob
// is added over its disc's bounding box, in blob order, so every pixel
// receives its blob updates in the order a per-pixel loop gives them.
func synthImage(w, h int, rng *xrand.Stream) *jpeg.Image {
	img := jpeg.NewImage(w, h)
	type blob struct{ cx, cy, r, ch, amp int }
	blobs := make([]blob, 8)
	for i := range blobs {
		blobs[i] = blob{rng.Intn(w), rng.Intn(h), rng.Intn(w/2 + 1), rng.Intn(3), 40 + rng.Intn(160)}
	}
	red, blue := make([]byte, w), make([]byte, w+h-1)
	for x := range red {
		red[x] = byte(x * 255 / w)
	}
	for s := range blue {
		blue[s] = byte(s * 255 / (w + h))
	}
	for y := 0; y < h; y++ {
		gradientRow(img.Pix[y*w*3:(y+1)*w*3], red, blue[y:y+w], byte(y*255/h))
	}
	for _, b := range blobs {
		addBlob(img.Pix, w, h, b.cx, b.cy, b.r, b.ch, b.amp)
	}
	return img
}

// gradientRow writes one row of the gradient: red by column, green by
// row, blue by column plus row.
//
//simlint:hotpath once per row of every synthesized corpus image
func gradientRow(dst, red, blue []byte, green byte) {
	dst = dst[:3*len(red)]
	blue = blue[:len(red)]
	for x, r := range red {
		p := dst[3*x : 3*x+3]
		p[0], p[1], p[2] = r, green, blue[x]
	}
}

// addBlob brightens channel ch of every pixel whose squared distance d
// from (cx, cy) is at most r² by amp·(r²−d)/(r²+1), saturating at 255.
//
//simlint:hotpath eight times per synthesized corpus image, over the blob's bounding box
func addBlob(pix []byte, w, h, cx, cy, r, ch, amp int) {
	r2 := r * r
	for y := max(cy-r, 0); y <= min(cy+r, h-1); y++ {
		dy := y - cy
		for x := max(cx-r, 0); x <= min(cx+r, w-1); x++ {
			dx := x - cx
			if d := dx*dx + dy*dy; d < r2+1 {
				i := (y*w+x)*3 + ch
				pix[i] = byte(min(int(pix[i])+amp*(r2-d)/(r2+1), 255))
			}
		}
	}
}

// postProcess runs matrix_filter_2d, optionally inside the what-if
// time-warp blocks of §6.4.
func postProcess(e app.Env, clk vclock.Hz, cfg JPEGConfig, w, h int) {
	factor := cfg.Compress
	if cfg.ProbeRealistic {
		// JumpT block: run the instrumented filter outside virtual time,
		// estimate its memory-access floor, and derive a realistic
		// acceleration bound (compute time / memory time).
		e.JumpT(func() {
			macs := int64(w) * int64(h) * 3 * 9 * int64(cfg.FilterPasses)
			computeNs := float64(clk.CyclesDur(macs/8)) / float64(vclock.Nanosecond)
			// Each output pixel rereads its 3x3 neighbourhood: with a
			// 1ns access amortized over cache lines, the memory floor is
			// ~1ns per 16 accessed bytes.
			memAccesses := int64(w) * int64(h) * 3 * int64(cfg.FilterPasses)
			memNs := float64(memAccesses) / 16
			factor = computeNs / memNs
			if factor < 1 {
				factor = 1
			}
			// The instrumentation re-runs the filter; inside JumpT that
			// consumes no virtual time.
			matrixFilter2D(e, clk, w, h, cfg.FilterPasses)
		})
	}
	if factor > 1 {
		e.CompressT(factor, func() {
			matrixFilter2D(e, clk, w, h, cfg.FilterPasses)
		})
		return
	}
	matrixFilter2D(e, clk, w, h, cfg.FilterPasses)
}

// matrixFilter2D charges the CPU cost of the 2-D kernel post-processing
// step: a 3x3 convolution over the RGB raster per pass (§6.1, §6.4).
func matrixFilter2D(e app.Env, clk vclock.Hz, w, h, passes int) {
	macs := int64(w) * int64(h) * 3 * 9 * int64(passes)
	// ~8 MACs/cycle on the native host (SIMD).
	e.Compute(cyclesWork(clk, macs/8, isa.ComputeMix, int64(w*h*3), 2.3,
		uint64(w)<<20^uint64(h)))
}
