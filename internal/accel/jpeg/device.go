package jpeg

import (
	"encoding/binary"

	"nexsim/internal/accel"
	"nexsim/internal/dsim"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Register map (byte offsets from the device's MMIO base).
const (
	RegDoorbell  = 0x00 // W: physical address of a task descriptor
	RegStatus    = 0x04 // R: count of completed tasks (monotonic)
	RegBusy      = 0x08 // R: tasks in flight
	RegIRQEnable = 0x0c // W: 1 = raise IRQVector on task completion
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

// rowInfo is the per-MCU-row work descriptor shared by both performance
// models.
type rowInfo struct {
	bits     int64 // entropy-coded bits in this row of MCUs
	blocks   int64 // 8x8 blocks
	inBytes  int64 // bitstream bytes fetched
	outBytes int64 // decoded RGB bytes written
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
	clk vclock.Hz

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	taskQ    *lpn.Place
	descResp *lpn.Place

	// FIFO of planned tasks, consumed by the dispatch stage. Head
	// cursors (not slice re-slicing) keep the backing arrays reusable
	// across tasks.
	planned     [][]rowInfo
	plannedHead int
	rowsLeft    []int // rows remaining per in-flight task, FIFO
	rowsHead    int

	// tokScratch is reused by the dispatch stage's OutFunc; the engine
	// consumes the returned slice synchronously.
	tokScratch []lpn.Token

	// DecodeErrors counts tasks whose bitstream failed to decode.
	DecodeErrors int64
}

// NewDevice builds a DSim JPEG decoder clocked at clk (the paper runs
// accelerators at 2GHz). Wire it to a host with SetHost before use.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{clk: clk}
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
			rows := d.planned[d.plannedHead]
			d.planned[d.plannedHead] = nil
			d.plannedHead++
			if d.plannedHead == len(d.planned) {
				d.planned, d.plannedHead = d.planned[:0], 0
			}
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

	d.Init("jpeg", nil, b.MustBuild())
	return d
}

// SetHost wires the device to its host engine.
func (d *Device) SetHost(h accel.Host) { d.Host = h }

func (d *Device) rowDone(at vclock.Time) {
	d.rowsLeft[d.rowsHead]--
	if d.rowsLeft[d.rowsHead] > 0 {
		return
	}
	d.rowsHead++
	if d.rowsHead == len(d.rowsLeft) {
		d.rowsLeft, d.rowsHead = d.rowsLeft[:0], 0
	}
	d.completed++
	d.inFlight--
	d.TaskCompleted(at)
	if d.irqEnabled {
		d.Host.RaiseIRQ(at, IRQVector)
	}
}

// RegRead implements accel.Device.
func (d *Device) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.Advance(at)
	switch off {
	case RegStatus:
		return d.completed
	case RegBusy:
		return d.inFlight
	default:
		return 0
	}
}

// RegWrite implements accel.Device.
func (d *Device) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	switch off {
	case RegDoorbell:
		d.startTask(at, mem.Addr(v))
	case RegIRQEnable:
		d.irqEnabled = v != 0
	}
}

// startTask runs the functionality track for the task and plans the
// performance track's tokens (paper §4.3: functional-first with
// zero-cost DMA, then LPN replay).
func (d *Device) startTask(at vclock.Time, descAddr mem.Addr) {
	d.TaskStarted(at)
	d.inFlight++
	rec := d.Recorder()

	// Descriptor fetch (recorded under DESC; replayed by the desc stage).
	descBytes := rec.ReadDMA("DESC", descAddr, DescSize)
	desc := decodeDesc(descBytes)

	// Functional decode of the full bitstream.
	img, stats, err := decodeAt(d.Host, desc)

	var rows []rowInfo
	if err != nil {
		// A malformed bitstream: the hardware signals completion with no
		// output after scanning the input once.
		d.DecodeErrors++
		rec.ReadDMA("BITS", desc.Src, int(desc.SrcLen))
		rec.WriteDMA("OUT", desc.Dst, nil)
		rows = []rowInfo{{bits: int64(desc.SrcLen) * 8, blocks: 1, inBytes: int64(desc.SrcLen), outBytes: 1}}
	} else {
		rows = d.planRows(rec, desc, img, stats)
	}

	d.planned = append(d.planned, rows)
	d.rowsLeft = append(d.rowsLeft, len(rows))
	d.Net.Inject(d.taskQ, lpn.Tok(at, int64(len(rows))))
}

// planRows splits the decode into MCU-row work items and records their
// DMAs in pipeline order.
func (d *Device) planRows(rec *dsim.Recorder, desc Desc, img *Image, stats *DecodeStats) []rowInfo {
	// Derive MCU geometry from the stats.
	mcuPxH := 8
	if stats.BlocksPerMCU >= 6 {
		mcuPxH = 16
	}
	mcuPxW := mcuPxH // 4:2:0 and 4:4:4 are symmetric here
	mcusX := intCeil(stats.Width, mcuPxW)
	mcusY := intCeil(stats.Height, mcuPxH)

	// The bitstream region is fetched in per-row spans proportional to
	// each row's bit count (header bytes ride with the first row).
	total := int64(desc.SrcLen)
	var rows []rowInfo
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
		rowPxH := mcuPxH
		if (ry+1)*mcuPxH > stats.Height {
			rowPxH = stats.Height - ry*mcuPxH
		}
		outBytes := int64(stats.Width * rowPxH * 3)
		rec.ReadDMA("BITS", desc.Src+mem.Addr(srcOff), int(inBytes))
		rec.WriteDMA("OUT", desc.Dst+mem.Addr(dstOff),
			img.Pix[dstOff:dstOff+outBytes])
		rows = append(rows, rowInfo{
			bits:     bits,
			blocks:   int64(mcusX * stats.BlocksPerMCU),
			inBytes:  inBytes,
			outBytes: outBytes,
		})
		srcOff += inBytes
		dstOff += outBytes
	}
	return rows
}

func intCeil(a, b int) int { return (a + b - 1) / b }

// MayRaiseIRQ reports whether an Advance may deliver an interrupt to the
// host (parsim's async-grant eligibility predicate): only once the
// driver has enabled interrupts via the IRQ-enable register.
func (d *Device) MayRaiseIRQ() bool { return d.irqEnabled }
