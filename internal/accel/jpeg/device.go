package jpeg

import (
	"encoding/binary"

	"nexsim/internal/dsim"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

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

// Device is the DSim model of the JPEG decoder.
type Device struct {
	dsim.Base

	taskQ *lpn.Place

	// rows is the in-flight tasks' row plans, in doorbell order; a row
	// token's attribute 0 indexes it.
	rows []row

	// tokScratch is reused by the dispatch stage's OutFunc; the engine
	// consumes the returned slice synchronously.
	tokScratch []lpn.Token
}

// NewDevice builds a DSim JPEG decoder clocked at clk (the paper runs
// accelerators at 2GHz). Wire it to a host with SetHost before use.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{}
	b := lpnlang.NewBuilder("jpegdec", clk)

	// Token attribute layouts:
	//   tasks/descResp: [first row, row count, descriptor address]
	//   rows onward:    [rows index]
	d.taskQ = b.Queue("tasks", 0)
	descResp := b.Queue("descResp", 0)
	rowQ := b.Queue("rows", 0)
	fetched := b.Queue("fetched", 0)
	huffed := b.Queue("huffed", 0)
	idcted := b.Queue("idcted", 0)
	stored := b.Queue("stored", 0)

	// Descriptor fetch.
	b.Stage("desc", d.taskQ, nil, b.Cycles(descFetchCycles),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.pass(descResp, f, d.DMA(f.Time, mem.Read, mem.Addr(f.Tok(0).Attrs[2]), DescSize, nil))
		}))

	// Dispatch: expand the task into per-row tokens.
	b.Stage("dispatch", descResp, rowQ, b.Cycles(4),
		lpnlang.OutTokens(func(f *lpn.Firing, done vclock.Time) []lpn.Token {
			t := f.Tok(0)
			out := d.tokScratch[:0]
			for i := t.Attrs[0]; i < t.Attrs[0]+t.Attrs[1]; i++ {
				out = append(out, lpn.Tok(done, i))
			}
			d.tokScratch = out
			return out
		}))

	// Bitstream fetch: one LOAD DMA per row; downstream waits for the
	// DMA response.
	b.Stage("fetch", rowQ, nil, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return d.rowOf(f).fetch
	}), lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
		r := d.rowOf(f)
		d.pass(fetched, f, d.DMA(f.Time, mem.Read, r.src, int(r.inBytes), nil))
	}))

	// Huffman decode: bit-serial, content-dependent.
	b.Stage("huffman", fetched, huffed, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return d.rowOf(f).huff
	}))

	// IDCT: two parallel block engines.
	b.Stage("idct", huffed, idcted, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return d.rowOf(f).idct
	}), lpnlang.Servers(idctUnits))

	// Output writeback: one STORE DMA per row, carrying its pixels.
	b.Stage("store", idcted, nil, b.CyclesFunc(func(f *lpn.Firing) int64 {
		return d.rowOf(f).store
	}), lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
		r := d.rowOf(f)
		d.pass(stored, f, d.DMA(f.Time, mem.Write, r.dst, len(r.outData), r.outData))
	}))

	// Row completion; the last row of a task completes it.
	b.Stage("finish", stored, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			if d.rowOf(f).last {
				d.Complete(f.Time)
			}
		}))

	d.Init("jpeg", d, b.MustBuild())
	return d
}

// rowOf returns the plan entry the firing's row token names.
func (d *Device) rowOf(f *lpn.Firing) *row { return &d.rows[f.Tok(0).Attrs[0]] }

// pass hands the firing's token on to p once its DMA completes at comp,
// so the stage after a DMA waits for the response (paper §4.3).
func (d *Device) pass(p *lpn.Place, f *lpn.Firing, comp vclock.Time) {
	d.Net.Inject(p, lpn.Token{TS: comp, Attrs: f.Tok(0).Attrs})
}

// Doorbell implements devkit.Model: it runs the functionality track for
// the task and plans the performance track's tokens (paper §4.3:
// functional-first with zero-cost DMA, then LPN replay of the plan's
// DMAs).
func (d *Device) Doorbell(at vclock.Time, descAddr mem.Addr) {
	if d.Idle() {
		// No in-flight token names a row when the device is idle;
		// truncate in place so the table does not grow across tasks.
		d.rows = d.rows[:0]
	}
	d.Start(at)
	rows := taskRows(d.Host, descAddr)
	first := len(d.rows)
	d.rows = append(d.rows, rows...)
	d.Net.Inject(d.taskQ, lpn.Tok(at, int64(first), int64(len(rows)), int64(descAddr)))
}
