package jpeg

import (
	"nexsim/internal/accel"
	"nexsim/internal/mem"
)

// Timing parameters of the modeled decoder core (at the device clock):
// derived from the Ultra-Embedded core's structure — a bit-serial
// Huffman unit (~2 bits/cycle), two parallel IDCT engines (~42
// cycles/block), and an 8-byte/cycle memory interface. The models read
// the IDCT engine count and the descriptor fetch; only the plan
// (taskRows) turns the per-row parameters into cycles, and the models
// read each row's.
const (
	huffBitsPerCycle = 2
	idctCyclesBlock  = 42
	idctUnits        = 2
	busBytesPerCycle = 8
	descFetchCycles  = 16
)

// row is the per-MCU-row work item shared by both performance models:
// the cycles each stage spends on it, and where its bytes live.
type row struct {
	fetch, huff, idct, store int64 // stage cycles
	inBytes                  int64 // bitstream bytes fetched

	src     mem.Addr // bitstream span
	dst     mem.Addr // output span
	outData []byte   // decoded pixels (nil for a malformed stream)
	last    bool     // final row of its task
}

// timedRow is the family's one cycle table: the stage cycles of a row
// with bits entropy-coded bits and blocks 8x8 blocks, fetched from
// inBytes of bitstream and written as outBytes of RGB.
func timedRow(bits, blocks, inBytes, outBytes int64) row {
	return row{
		fetch:   4 + inBytes/busBytesPerCycle,
		huff:    bits / huffBitsPerCycle,
		idct:    blocks * idctCyclesBlock / idctUnits,
		store:   outBytes / busBytesPerCycle,
		inBytes: inBytes,
	}
}

// taskRows is both models' doorbell and functional track: it reads the
// descriptor at descAddr and returns the memoized decode of the
// bitstream it names, split into MCU-row work items. A malformed
// bitstream is one row, which the hardware signals completion for with
// no output after scanning the input once.
func taskRows(h accel.Host, descAddr mem.Addr) (rows []row) {
	var descB [DescSize]byte
	h.ZeroCostRead(descAddr, descB[:])
	desc := decodeDesc(descB[:])
	img, stats, err := decodeAt(h, desc)
	if err != nil {
		r := timedRow(int64(desc.SrcLen)*8, 1, int64(desc.SrcLen), 1)
		r.src, r.dst, r.last = desc.Src, desc.Dst, true
		return []row{r}
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
		r := timedRow(bits, int64(mcusX*stats.BlocksPerMCU), inBytes, outBytes)
		r.src = desc.Src + mem.Addr(srcOff)
		r.dst = desc.Dst + mem.Addr(dstOff)
		r.outData = img.Pix[dstOff : dstOff+outBytes]
		r.last = ry == mcusY-1
		rows = append(rows, r)
		srcOff += inBytes
		dstOff += outBytes
	}
	return rows
}

func intCeil(a, b int) int { return (a + b - 1) / b }
