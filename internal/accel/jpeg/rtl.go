package jpeg

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the JPEG decoder — the stand-in
// for Verilator running the core's Verilog (the paper's baseline
// accelerator simulator). While the accelerator is busy, every clock
// cycle is an explicit simulation step, which is why this model is
// orders of magnitude more expensive to run than the LPN-based DSim
// model, while being externally indistinguishable from it: same register
// semantics, same DMA sequence, same bytes in memory.
type RTLDevice struct {
	name string
	clk  vclock.Hz
	host accel.Host

	cycle int64 // current device cycle

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	// Pipeline units. Each holds the rows it has accepted and is busy
	// until a given cycle.
	fetchQ                                       []rtlRow // waiting for the fetch unit
	huffQ                                        []rtlRow // fetched, waiting for huffman
	idctQ                                        []rtlRow // huffman-decoded, waiting for idct+store
	fetchBusyUntil, huffBusyUntil, idctBusyUntil int64
	fetchCur, huffCur, idctCur                   *rtlRow

	rowsLeft []int // rows remaining per task, FIFO

	stats     accel.DeviceStats
	busyStart vclock.Time

	// DecodeErrors counts malformed bitstreams.
	DecodeErrors int64
}

type rtlRow struct {
	info    rowInfo
	src     mem.Addr
	dst     mem.Addr
	outData []byte
	last    bool // final row of its task
}

// NewRTLDevice builds the cycle-level decoder model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	return &RTLDevice{name: "jpeg-rtl", clk: clk}
}

// SetHost wires the device to its host engine.
func (d *RTLDevice) SetHost(h accel.Host) { d.host = h }

// Name implements accel.Device.
func (d *RTLDevice) Name() string { return d.name }

// Stats implements accel.Device.
func (d *RTLDevice) Stats() accel.DeviceStats { return d.stats }

func (d *RTLDevice) timeAt(cycle int64) vclock.Time {
	return vclock.Time(0).Add(d.clk.CyclesDur(cycle))
}

func (d *RTLDevice) cyclesAt(t vclock.Time) int64 {
	return d.clk.Cycles(t.Sub(0))
}

// RegRead implements accel.Device.
func (d *RTLDevice) RegRead(at vclock.Time, off mem.Addr) uint32 {
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
func (d *RTLDevice) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	switch off {
	case RegDoorbell:
		d.startTask(at, mem.Addr(v))
	case RegIRQEnable:
		d.irqEnabled = v != 0
	}
}

func (d *RTLDevice) busy() bool {
	return d.fetchCur != nil || d.huffCur != nil || d.idctCur != nil ||
		len(d.fetchQ) > 0 || len(d.huffQ) > 0 || len(d.idctQ) > 0
}

// Advance implements accel.Device: step the pipeline up to time t.
//
// Between unit events step() is a pure no-op: completions fire at a
// unit's busyUntil and an idle unit with queued rows issues in the same
// step it went idle. Jumping straight to the nearest busyUntil when no
// idle unit has work is therefore cycle-exact and skips the dead
// stepping in between.
func (d *RTLDevice) Advance(t vclock.Time) {
	target := d.cyclesAt(t)
	for d.cycle <= target {
		if !d.busy() {
			d.cycle = target + 1
			return
		}
		next := int64(1 << 62)
		consider := func(cur *rtlRow, busyUntil int64, queue []rtlRow) {
			if cur != nil {
				if busyUntil < next {
					next = busyUntil
				}
			} else if len(queue) > 0 {
				next = d.cycle
			}
		}
		consider(d.fetchCur, d.fetchBusyUntil, d.fetchQ)
		consider(d.huffCur, d.huffBusyUntil, d.huffQ)
		consider(d.idctCur, d.idctBusyUntil, d.idctQ)
		if next > d.cycle {
			if next > target {
				d.cycle = target + 1
				return
			}
			d.cycle = next
		}
		d.step()
		d.cycle++
	}
}

// NextEvent implements accel.Device.
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.busy() {
		return vclock.Never, false
	}
	// The next externally visible action happens at the earliest unit
	// completion (or immediately, if a unit can accept new work).
	next := int64(1 << 62)
	consider := func(cur *rtlRow, busyUntil int64, queue []rtlRow) {
		if cur != nil {
			if busyUntil < next {
				next = busyUntil
			}
		} else if len(queue) > 0 {
			if d.cycle < next {
				next = d.cycle
			}
		}
	}
	consider(d.fetchCur, d.fetchBusyUntil, d.fetchQ)
	consider(d.huffCur, d.huffBusyUntil, d.huffQ)
	consider(d.idctCur, d.idctBusyUntil, d.idctQ)
	return d.timeAt(next), true
}

// step advances the pipeline by one clock cycle.
func (d *RTLDevice) step() {
	now := d.timeAt(d.cycle)

	// IDCT + store unit.
	if d.idctCur != nil && d.cycle >= d.idctBusyUntil {
		row := d.idctCur
		d.idctCur = nil
		// Output DMA at completion.
		done := d.host.DMA(now, mem.Write, row.dst, len(row.outData))
		d.stats.DMABytes += int64(len(row.outData))
		if row.outData != nil {
			d.host.ZeroCostWrite(row.dst, row.outData)
		}
		if row.last {
			d.rowsLeft = d.rowsLeft[1:]
			d.completed++
			d.inFlight--
			d.stats.TasksCompleted++
			if d.inFlight == 0 {
				d.stats.BusyTime += done.Sub(d.busyStart)
			}
			if d.irqEnabled {
				d.host.RaiseIRQ(done, IRQVector)
			}
		}
	}
	if d.idctCur == nil && len(d.idctQ) > 0 {
		row := d.idctQ[0]
		d.idctQ = d.idctQ[1:]
		d.idctCur = &row
		d.idctBusyUntil = d.cycle + row.info.blocks*idctCyclesBlock/idctUnits +
			row.info.outBytes/busBytesPerCycle
	}

	// Huffman unit.
	if d.huffCur != nil && d.cycle >= d.huffBusyUntil {
		d.idctQ = append(d.idctQ, *d.huffCur)
		d.huffCur = nil
	}
	if d.huffCur == nil && len(d.huffQ) > 0 {
		row := d.huffQ[0]
		d.huffQ = d.huffQ[1:]
		d.huffCur = &row
		d.huffBusyUntil = d.cycle + row.info.bits/huffBitsPerCycle
	}

	// Fetch unit.
	if d.fetchCur != nil && d.cycle >= d.fetchBusyUntil {
		d.huffQ = append(d.huffQ, *d.fetchCur)
		d.fetchCur = nil
	}
	if d.fetchCur == nil && len(d.fetchQ) > 0 {
		row := d.fetchQ[0]
		d.fetchQ = d.fetchQ[1:]
		d.fetchCur = &row
		comp := d.host.DMA(now, mem.Read, row.src, int(row.info.inBytes))
		d.stats.DMABytes += row.info.inBytes
		busy := d.cycle + 4 + row.info.inBytes/busBytesPerCycle
		if c := d.cyclesAt(comp); c > busy {
			busy = c
		}
		d.fetchBusyUntil = busy
	}
}

// startTask decodes the task functionally (an RTL simulator computes the
// same results through its gates; we reuse the functional codec) and
// enqueues its rows into the cycle-stepped pipeline.
func (d *RTLDevice) startTask(at vclock.Time, descAddr mem.Addr) {
	d.stats.TasksStarted++
	if d.inFlight == 0 {
		d.busyStart = at
	}
	d.inFlight++

	var descBytes [DescSize]byte
	d.host.DMA(at, mem.Read, descAddr, DescSize)
	d.host.ZeroCostRead(descAddr, descBytes[:])
	desc := decodeDesc(descBytes[:])

	img, stats, err := decodeAt(d.host, desc)

	var rows []rtlRow
	if err != nil {
		d.DecodeErrors++
		rows = []rtlRow{{
			info: rowInfo{bits: int64(desc.SrcLen) * 8, blocks: 1,
				inBytes: int64(desc.SrcLen), outBytes: 1},
			src: desc.Src, dst: desc.Dst, last: true,
		}}
	} else {
		rows = planRTLRows(desc, img, stats)
	}
	d.rowsLeft = append(d.rowsLeft, len(rows))
	d.fetchQ = append(d.fetchQ, rows...)
	if d.cycle < d.cyclesAt(at) {
		d.cycle = d.cyclesAt(at)
	}
}

// planRTLRows mirrors Device.planRows but carries addresses and output
// data on each row (the RTL pipeline issues its own DMAs).
func planRTLRows(desc Desc, img *Image, stats *DecodeStats) []rtlRow {
	mcuPxH := 8
	if stats.BlocksPerMCU >= 6 {
		mcuPxH = 16
	}
	mcusX := intCeil(stats.Width, mcuPxH)
	mcusY := intCeil(stats.Height, mcuPxH)

	total := int64(desc.SrcLen)
	var rows []rtlRow
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
			inBytes = total - srcOff
		}
		if inBytes <= 0 {
			inBytes = 1
		}
		rowPxH := mcuPxH
		if (ry+1)*mcuPxH > stats.Height {
			rowPxH = stats.Height - ry*mcuPxH
		}
		outBytes := int64(stats.Width * rowPxH * 3)
		rows = append(rows, rtlRow{
			info: rowInfo{bits: bits, blocks: int64(mcusX * stats.BlocksPerMCU),
				inBytes: inBytes, outBytes: outBytes},
			src:     desc.Src + mem.Addr(srcOff),
			dst:     desc.Dst + mem.Addr(dstOff),
			outData: img.Pix[dstOff : dstOff+outBytes],
			last:    ry == mcusY-1,
		})
		srcOff += inBytes
		dstOff += outBytes
	}
	return rows
}

// MayRaiseIRQ reports whether an Advance may deliver an interrupt to the
// host (parsim's async-grant eligibility predicate): only once the
// driver has enabled interrupts via the IRQ-enable register.
func (d *RTLDevice) MayRaiseIRQ() bool { return d.irqEnabled }
