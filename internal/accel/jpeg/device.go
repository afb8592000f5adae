package jpeg

import (
	"encoding/binary"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/dsim"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// IRQVector is the interrupt vector the decoder raises on completion.
const IRQVector = 7

// DescSize is the size of a task descriptor in the task buffer:
// src (8) | srcLen (4) | dst (8) | pad (4).
const DescSize = 24

// Desc is a decode-task descriptor.
type Desc struct {
	Src    mem.Addr // bitstream address
	SrcLen uint32   // bitstream length
	Dst    mem.Addr // output RGB24 raster address
}

// EncodeDesc serializes a descriptor for the task buffer.
func EncodeDesc(d Desc) [DescSize]byte {
	var b [DescSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.Src))
	binary.LittleEndian.PutUint32(b[8:], d.SrcLen)
	binary.LittleEndian.PutUint64(b[12:], uint64(d.Dst))
	return b
}

func decodeDesc(b []byte) Desc {
	return Desc{
		Src:    mem.Addr(binary.LittleEndian.Uint64(b[0:])),
		SrcLen: binary.LittleEndian.Uint32(b[8:]),
		Dst:    mem.Addr(binary.LittleEndian.Uint64(b[12:])),
	}
}

// row is the per-MCU-row work item shared by both performance models:
// how much work the row is, and where its bytes live.
type row struct {
	bits     int64 // entropy-coded bits in this row of MCUs
	blocks   int64 // 8x8 blocks
	inBytes  int64 // bitstream bytes fetched
	outBytes int64 // decoded RGB bytes written

	src     mem.Addr // bitstream span
	dst     mem.Addr // output span
	outData []byte   // decoded pixels (nil for a malformed stream)
	last    bool     // final row of its task
}

// Timing parameters of the modeled decoder core (at the device clock):
// derived from the Ultra-Embedded core's structure — a bit-serial
// Huffman unit (~2 bits/cycle), two parallel IDCT engines (~42
// cycles/block), and an 8-byte/cycle memory interface.
const (
	huffBitsPerCycle = 2
	idctCyclesBlock  = 42
	idctUnits        = 2
	busBytesPerCycle = 8
	descFetchCycles  = 16
)

// Device is the DSim model of the JPEG decoder.
type Device struct {
	dsim.Base

	taskQ    *lpn.Place
	descResp *lpn.Place

	planned  devkit.Queue[[]row] // planned tasks, consumed by the dispatch stage
	rowsLeft devkit.Queue[int]   // rows remaining per in-flight task

	// tokScratch is reused by the dispatch stage's OutFunc; the engine
	// consumes the returned slice synchronously.
	tokScratch []lpn.Token

	// DecodeErrors counts tasks whose bitstream failed to decode.
	DecodeErrors int64
}

// NewDevice builds a DSim JPEG decoder clocked at clk (the paper runs
// accelerators at 2GHz). Wire it to a host with SetHost before use.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{}
	b := lpnlang.NewBuilder("jpegdec", clk)

	d.taskQ = b.Queue("tasks", 0)
	d.descResp = b.Queue("descResp", 0)
	rowQ := b.Queue("rows", 0)
	fetched := b.Queue("fetched", 0)
	huffed := b.Queue("huffed", 0)
	idcted := b.Queue("idcted", 0)
	stored := b.Queue("stored", 0)

	// Descriptor fetch.
	b.Stage("desc", d.taskQ, nil, b.Cycles(descFetchCycles),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.EmitDMA("DESC", d.descResp)(f, done)
		}))

	// Dispatch: expand the task into per-row tokens.
	b.Stage("dispatch", d.descResp, rowQ, b.Cycles(4),
		lpnlang.OutTokens(func(f *lpn.Firing, done vclock.Time) []lpn.Token {
			rows := *d.planned.Front()
			d.planned.Pop()
			out := d.tokScratch[:0]
			for _, r := range rows {
				out = append(out, lpn.Tok(done, r.bits, r.blocks, r.outBytes, r.inBytes))
			}
			d.tokScratch = out
			return out
		}))

	// Bitstream fetch: one LOAD DMA per row; downstream waits for the
	// DMA response (attrs ride along on the injected token).
	b.Stage("fetch", rowQ, nil, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return 4 + f.Tok(0).Attrs[3]/busBytesPerCycle
	}), lpnlang.Effect(d.EmitDMA("BITS", fetched)))

	// Huffman decode: bit-serial, content-dependent.
	b.Stage("huffman", fetched, huffed, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return f.Tok(0).Attrs[0] / huffBitsPerCycle
	}))

	// IDCT: two parallel block engines.
	b.Stage("idct", huffed, idcted, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return f.Tok(0).Attrs[1] * idctCyclesBlock / idctUnits
	}), lpnlang.Servers(idctUnits))

	// Output writeback: one STORE DMA per row.
	b.Stage("store", idcted, nil, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return f.Tok(0).Attrs[2] / busBytesPerCycle
	}), lpnlang.Effect(d.EmitDMA("OUT", stored)))

	// Row completion; the last row of a task completes it.
	b.Stage("finish", stored, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.rowDone(f.Time)
		}))

	d.Init("jpeg", IRQVector, d, b.MustBuild())
	return d
}

func (d *Device) rowDone(at vclock.Time) {
	left := d.rowsLeft.Front()
	if *left--; *left > 0 {
		return
	}
	d.rowsLeft.Pop()
	d.Complete(at)
}

// Doorbell implements devkit.Model: it runs the functionality track for
// the task and plans the performance track's tokens (paper §4.3:
// functional-first with zero-cost DMA, then LPN replay).
func (d *Device) Doorbell(at vclock.Time, descAddr mem.Addr) {
	d.Start(at)
	rec := d.Recorder()

	// Descriptor fetch (recorded under DESC; replayed by the desc stage).
	desc := decodeDesc(rec.ReadDMA("DESC", descAddr, DescSize))
	rows, ok := taskRows(d.Host, desc)
	if !ok {
		d.DecodeErrors++
	}
	// Record the rows' DMAs in pipeline order.
	for i := range rows {
		rec.ReadDMA("BITS", rows[i].src, int(rows[i].inBytes))
		rec.WriteDMA("OUT", rows[i].dst, rows[i].outData)
	}

	d.planned.Push(rows)
	d.rowsLeft.Push(len(rows))
	d.Net.Inject(d.taskQ, lpn.Tok(at, int64(len(rows))))
}

// taskRows is both models' functional track: the memoized decode of the
// bitstream desc names, split into MCU-row work items. ok is false for a
// malformed bitstream, which the hardware signals completion for with no
// output after scanning the input once.
func taskRows(h accel.Host, desc Desc) (rows []row, ok bool) {
	img, stats, err := decodeAt(h, desc)
	if err != nil {
		return []row{{bits: int64(desc.SrcLen) * 8, blocks: 1, inBytes: int64(desc.SrcLen), outBytes: 1,
			src: desc.Src, dst: desc.Dst, last: true}}, false
	}

	// Derive MCU geometry from the stats.
	mcuPx := 8 // 4:2:0 and 4:4:4 MCUs are square
	if stats.BlocksPerMCU >= 6 {
		mcuPx = 16
	}
	mcusX := intCeil(stats.Width, mcuPx)
	mcusY := intCeil(stats.Height, mcuPx)

	// The bitstream region is fetched in per-row spans proportional to
	// each row's bit count (header bytes ride with the first row).
	total := int64(desc.SrcLen)
	srcOff := int64(0)
	dstOff := int64(0)
	for ry := 0; ry < mcusY; ry++ {
		var bits int64
		for mx := 0; mx < mcusX; mx++ {
			idx := ry*mcusX + mx
			if idx < len(stats.MCUBits) {
				bits += stats.MCUBits[idx]
			}
		}
		inBytes := bits / 8
		if ry == mcusY-1 {
			inBytes = total - srcOff // remainder, including headers/EOI
		}
		if inBytes <= 0 {
			inBytes = 1
		}
		rowPxH := mcuPx
		if (ry+1)*mcuPx > stats.Height {
			rowPxH = stats.Height - ry*mcuPx
		}
		outBytes := int64(stats.Width * rowPxH * 3)
		rows = append(rows, row{
			bits:     bits,
			blocks:   int64(mcusX * stats.BlocksPerMCU),
			inBytes:  inBytes,
			outBytes: outBytes,
			src:      desc.Src + mem.Addr(srcOff),
			dst:      desc.Dst + mem.Addr(dstOff),
			outData:  img.Pix[dstOff : dstOff+outBytes],
			last:     ry == mcusY-1,
		})
		srcOff += inBytes
		dstOff += outBytes
	}
	return rows, true
}

func intCeil(a, b int) int { return (a + b - 1) / b }
