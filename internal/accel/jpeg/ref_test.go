package jpeg

import (
	"encoding/binary"
	"fmt"
)

// The codec functions the kernels in dct.go, bits.go, decode.go and
// encode.go replaced, kept verbatim but for their names: the decoder
// (refDecodeUncached, its bit reader and its Huffman decode) must return
// the same raster, DecodeStats and error on any bytes, the encoder the
// same bitstream for any image (DESIGN.md §4.3, "functional kernels").

// refFdct8x8 computes the forward 8x8 DCT of a level-shifted block
// (values in [-128,127]), producing unquantized coefficients.
func refFdct8x8(in *[64]float64, out *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += in[y*8+x] * cosTable[u][x]
			}
			tmp[y*8+u] = s / 2
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * cosTable[v][y]
			}
			out[v*8+u] = s / 2
		}
	}
}

// refIdct8x8 computes the inverse 8x8 DCT of dequantized coefficients,
// producing level-shifted samples.
func refIdct8x8(in *[64]float64, out *[64]float64) {
	var tmp [64]float64
	// Rows.
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += in[v*8+u] * cosTable[u][x]
			}
			tmp[v*8+x] = s / 2
		}
	}
	// Columns.
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += tmp[v*8+x] * cosTable[v][y]
			}
			out[y*8+x] = s / 2
		}
	}
}

// refBitReader consumes an entropy-coded segment, removing stuffed zero
// bytes and stopping at markers. It counts consumed bits so performance
// models can charge cycles per bit.
type refBitReader struct {
	data []byte
	pos  int
	acc  uint32
	bits int

	// BitsRead counts entropy-coded bits consumed (timing model input).
	BitsRead int64
}

func (r *refBitReader) fill() error {
	for r.bits <= 24 {
		if r.pos >= len(r.data) {
			if r.bits > 0 {
				// Pad so trailing reads of the final partial byte work.
				r.acc <<= 8
				r.bits += 8
				continue
			}
			return fmt.Errorf("jpeg: entropy segment exhausted")
		}
		b := r.data[r.pos]
		if b == 0xff {
			if r.pos+1 < len(r.data) && r.data[r.pos+1] == 0x00 {
				r.pos += 2 // stuffed byte
			} else {
				// A marker: pad with ones; the scan is over.
				r.acc = r.acc<<8 | 0xff
				r.bits += 8
				continue
			}
		} else {
			r.pos++
		}
		r.acc = r.acc<<8 | uint32(b)
		r.bits += 8
	}
	return nil
}

// peek returns the next n bits without consuming.
func (r *refBitReader) peek(n int) (uint32, error) {
	if r.bits < n {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	return (r.acc >> uint(r.bits-n)) & (1<<uint(n) - 1), nil
}

// take consumes n bits.
func (r *refBitReader) take(n int) (uint32, error) {
	v, err := r.peek(n)
	if err != nil {
		return 0, err
	}
	r.bits -= n
	r.BitsRead += int64(n)
	return v, nil
}

// syncRestart byte-aligns the reader and consumes an RSTn marker
// (0xFFD0-0xFFD7) from the underlying stream.
func (r *refBitReader) syncRestart() error {
	// Discard buffered bits back to the byte boundary; any bits already
	// pulled into the accumulator belong to the padding before the
	// marker.
	r.acc = 0
	r.bits = 0
	for r.pos+1 < len(r.data) {
		if r.data[r.pos] == 0xff && r.data[r.pos+1] >= 0xd0 && r.data[r.pos+1] <= 0xd7 {
			r.pos += 2
			return nil
		}
		r.pos++
	}
	return fmt.Errorf("jpeg: missing restart marker")
}

// refHuffDecode reads one Huffman-coded symbol.
func refHuffDecode(t *huffTable, r *refBitReader) (byte, error) {
	code := int32(0)
	for l := 1; l <= 16; l++ {
		b, err := r.take(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if t.maxCode[l] >= 0 && code <= t.maxCode[l] && code >= t.minCode[l] {
			idx := t.valPtr[l] + int(code-t.minCode[l])
			if idx >= len(t.vals) {
				return 0, fmt.Errorf("jpeg: huffman index out of range")
			}
			return t.vals[idx], nil
		}
	}
	return 0, fmt.Errorf("jpeg: invalid huffman code")
}

// refReceiveExtend reads an s-bit magnitude value and sign-extends per F.2.2.1.
func refReceiveExtend(r *refBitReader, s int) (int32, error) {
	if s == 0 {
		return 0, nil
	}
	v, err := r.take(s)
	if err != nil {
		return 0, err
	}
	x := int32(v)
	if x < 1<<uint(s-1) {
		x -= 1<<uint(s) - 1
	}
	return x, nil
}

// refMagnitude categorizes a coefficient per F.1.2.1.
func refMagnitude(v int32) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// refDecodeUncached is the actual decoder.
func refDecodeUncached(data []byte) (*Image, *DecodeStats, error) {
	d := &Decoder{}
	if len(data) < 4 || data[0] != 0xff || data[1] != 0xd8 {
		return nil, nil, fmt.Errorf("jpeg: missing SOI")
	}
	pos := 2
	for pos+4 <= len(data) {
		if data[pos] != 0xff {
			return nil, nil, fmt.Errorf("jpeg: expected marker at %d", pos)
		}
		m := data[pos+1]
		if m == 0xd9 { // EOI
			break
		}
		l := int(binary.BigEndian.Uint16(data[pos+2:]))
		if l < 2 || pos+2+l > len(data) {
			return nil, nil, fmt.Errorf("jpeg: bad segment length %d for marker %#x", l, m)
		}
		seg := data[pos+4 : pos+2+l]
		switch m {
		case 0xdb:
			if err := d.parseDQT(seg); err != nil {
				return nil, nil, err
			}
		case 0xc0, 0xc1:
			if err := d.parseSOF(seg); err != nil {
				return nil, nil, err
			}
		case 0xc2:
			return nil, nil, fmt.Errorf("jpeg: progressive not supported")
		case 0xc4:
			if err := d.parseDHT(seg); err != nil {
				return nil, nil, err
			}
		case 0xdd: // DRI
			if len(seg) < 2 {
				return nil, nil, fmt.Errorf("jpeg: short DRI")
			}
			d.restart = int(binary.BigEndian.Uint16(seg))
		case 0xda:
			if err := d.parseSOS(seg); err != nil {
				return nil, nil, err
			}
			img, err := refDecodeScan(d, data[pos+2+l:])
			if err != nil {
				return nil, nil, err
			}
			return img, &d.stats, nil
		default:
			// APPn/COM/etc: skip.
		}
		pos += 2 + l
	}
	return nil, nil, fmt.Errorf("jpeg: no SOS found")
}

func refDecodeScan(d *Decoder, ecs []byte) (*Image, error) {
	if len(d.comps) == 0 || d.w == 0 {
		return nil, fmt.Errorf("jpeg: SOS before SOF")
	}
	// A scan needs its Huffman tables.
	for _, c := range d.comps {
		if d.dc[c.dcTab] == nil || d.ac[c.acTab] == nil {
			return nil, fmt.Errorf("jpeg: missing huffman table")
		}
	}
	hsMax, vsMax := 1, 1
	blocksPerMCU := 0
	for _, c := range d.comps {
		if c.hs > hsMax {
			hsMax = c.hs
		}
		if c.vs > vsMax {
			vsMax = c.vs
		}
		blocksPerMCU += c.hs * c.vs
	}
	mcuW, mcuH := 8*hsMax, 8*vsMax
	mcusX := (d.w + mcuW - 1) / mcuW
	mcusY := (d.h + mcuH - 1) / mcuH

	for _, c := range d.comps {
		c.pw = mcusX * 8 * c.hs
		c.ph = mcusY * 8 * c.vs
		c.plane = make([]byte, c.pw*c.ph)
	}

	r := &refBitReader{data: ecs}
	d.stats.Width, d.stats.Height = d.w, d.h
	d.stats.MCUs = mcusX * mcusY
	d.stats.BlocksPerMCU = blocksPerMCU

	var zz [64]int32
	var coef, pix [64]float64
	mcuIdx := 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			if d.restart > 0 && mcuIdx > 0 && mcuIdx%d.restart == 0 {
				// Restart marker: byte-align, consume RSTn, reset DC
				// predictors.
				if err := r.syncRestart(); err != nil {
					return nil, err
				}
				for _, c := range d.comps {
					c.dcPrev = 0
				}
			}
			mcuIdx++
			before := r.BitsRead
			for _, c := range d.comps {
				for by := 0; by < c.vs; by++ {
					for bx := 0; bx < c.hs; bx++ {
						if err := refDecodeBlock(d, r, c, &zz); err != nil {
							return nil, err
						}
						// Dequantize + un-zigzag.
						q := &d.quant[c.quant]
						for i := range coef {
							coef[i] = 0
						}
						for i := 0; i < 64; i++ {
							if zz[i] != 0 {
								coef[zigzag[i]] = float64(zz[i] * q[zigzag[i]])
								d.stats.NonZeroCoeffs++
							}
						}
						refIdct8x8(&coef, &pix)
						// Store into the component plane.
						x0 := (mx*c.hs + bx) * 8
						y0 := (my*c.vs + by) * 8
						for y := 0; y < 8; y++ {
							row := (y0+y)*c.pw + x0
							for x := 0; x < 8; x++ {
								c.plane[row+x] = clamp8(int32(pix[y*8+x] + 128.5))
							}
						}
					}
				}
			}
			d.stats.MCUBits = append(d.stats.MCUBits, r.BitsRead-before)
		}
	}
	d.stats.BitsRead = r.BitsRead

	return refCompose(d, hsMax, vsMax), nil
}

func refDecodeBlock(d *Decoder, r *refBitReader, c *component, zz *[64]int32) error {
	for i := range zz {
		zz[i] = 0
	}
	// DC.
	s, err := refHuffDecode(d.dc[c.dcTab], r)
	if err != nil {
		return err
	}
	diff, err := refReceiveExtend(r, int(s))
	if err != nil {
		return err
	}
	c.dcPrev += diff
	zz[0] = c.dcPrev
	// AC.
	for k := 1; k < 64; {
		rs, err := refHuffDecode(d.ac[c.acTab], r)
		if err != nil {
			return err
		}
		run, size := int(rs>>4), int(rs&15)
		if size == 0 {
			if run == 15 { // ZRL
				k += 16
				continue
			}
			break // EOB
		}
		k += run
		if k > 63 {
			return fmt.Errorf("jpeg: coefficient index out of range")
		}
		v, err := refReceiveExtend(r, size)
		if err != nil {
			return err
		}
		zz[k] = v
		k++
	}
	return nil
}

// refCompose upsamples the component planes and converts to RGB24.
func refCompose(d *Decoder, hsMax, vsMax int) *Image {
	img := NewImage(d.w, d.h)
	y, cb, cr := d.comps[0], d.comps[0], d.comps[0]
	if len(d.comps) >= 3 {
		cb, cr = d.comps[1], d.comps[2]
	}
	for py := 0; py < d.h; py++ {
		for px := 0; px < d.w; px++ {
			yy := int32(refSamplePlane(y, px, py, hsMax, vsMax))
			var cbv, crv int32 = 128, 128
			if len(d.comps) >= 3 {
				cbv = int32(refSamplePlane(cb, px, py, hsMax, vsMax))
				crv = int32(refSamplePlane(cr, px, py, hsMax, vsMax))
			}
			cbv -= 128
			crv -= 128
			i := (py*d.w + px) * 3
			img.Pix[i] = clamp8(yy + (359*crv)>>8)
			img.Pix[i+1] = clamp8(yy - ((88*cbv + 183*crv) >> 8))
			img.Pix[i+2] = clamp8(yy + (454*cbv)>>8)
		}
	}
	return img
}

// refSamplePlane reads a component plane at image coordinates, applying
// nearest-neighbour chroma upsampling.
func refSamplePlane(c *component, px, py, hsMax, vsMax int) byte {
	x := px * c.hs / hsMax
	y := py * c.vs / vsMax
	if x >= c.pw {
		x = c.pw - 1
	}
	if y >= c.ph {
		y = c.ph - 1
	}
	return c.plane[y*c.pw+x]
}

// refEncodeRestart is Encode with a DRI restart interval (MCUs between
// RSTn markers; 0 disables restarts).
func refEncodeRestart(img *Image, quality int, sub Subsampling, restart int) []byte {
	lq := scaleQuant(stdLumaQuant, quality)
	cq := scaleQuant(stdChromaQuant, quality)
	dcL := buildHuff(stdDCLumaBits, stdDCLumaVals)
	acL := buildHuff(stdACLumaBits, stdACLumaVals)
	dcC := buildHuff(stdDCChromaBits, stdDCChromaVals)
	acC := buildHuff(stdACChromaBits, stdACChromaVals)

	var out []byte
	emit := func(b ...byte) { out = append(out, b...) }
	marker := func(m byte, payload []byte) {
		emit(0xff, m)
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(payload)+2))
		emit(l[:]...)
		out = append(out, payload...)
	}

	emit(0xff, 0xd8) // SOI

	// APP0 / JFIF.
	marker(0xe0, []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0})

	// DQT: table 0 (luma), table 1 (chroma), in zig-zag order.
	dqt := make([]byte, 0, 130)
	dqt = append(dqt, 0x00)
	for i := 0; i < 64; i++ {
		dqt = append(dqt, byte(lq[zigzag[i]]))
	}
	dqt = append(dqt, 0x01)
	for i := 0; i < 64; i++ {
		dqt = append(dqt, byte(cq[zigzag[i]]))
	}
	marker(0xdb, dqt)

	// SOF0.
	hs, vs := 1, 1
	if sub == Sub420 {
		hs, vs = 2, 2
	}
	sof := []byte{
		8,
		byte(img.H >> 8), byte(img.H), byte(img.W >> 8), byte(img.W),
		3,
		1, byte(hs<<4 | vs), 0, // Y
		2, 0x11, 1, // Cb
		3, 0x11, 1, // Cr
	}
	marker(0xc0, sof)

	// DHT: four standard tables.
	dht := make([]byte, 0, 512)
	add := func(class, id byte, bits [16]byte, vals []byte) {
		dht = append(dht, class<<4|id)
		dht = append(dht, bits[:]...)
		dht = append(dht, vals...)
	}
	add(0, 0, stdDCLumaBits, stdDCLumaVals)
	add(1, 0, stdACLumaBits, stdACLumaVals)
	add(0, 1, stdDCChromaBits, stdDCChromaVals)
	add(1, 1, stdACChromaBits, stdACChromaVals)
	marker(0xc4, dht)

	// DRI (optional).
	if restart > 0 {
		marker(0xdd, []byte{byte(restart >> 8), byte(restart)})
	}

	// SOS.
	marker(0xda, []byte{3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0})

	// Convert to YCbCr planes at full resolution.
	yP, cbP, crP := toYCbCr(img)

	w := &bitWriter{}
	mcuW, mcuH := 8*hs, 8*vs
	mcusX := (img.W + mcuW - 1) / mcuW
	mcusY := (img.H + mcuH - 1) / mcuH
	var dcPrev [3]int32

	encodeBlock := func(block *[64]float64, q *[64]int32, dc, ac *huffTable, comp int) {
		var coef [64]float64
		refFdct8x8(block, &coef)
		var zz [64]int32
		for i := 0; i < 64; i++ {
			v := coef[zigzag[i]] / float64(q[zigzag[i]])
			if v >= 0 {
				zz[i] = int32(v + 0.5)
			} else {
				zz[i] = int32(v - 0.5)
			}
		}
		// DC.
		diff := zz[0] - dcPrev[comp]
		dcPrev[comp] = zz[0]
		s := refMagnitude(diff)
		w.write(dc.code[s], dc.size[s])
		if s > 0 {
			d := diff
			if d < 0 {
				d += 1<<uint(s) - 1
			}
			w.write(uint32(d), s)
		}
		// AC.
		run := 0
		for k := 1; k < 64; k++ {
			if zz[k] == 0 {
				run++
				continue
			}
			for run >= 16 {
				w.write(ac.code[0xf0], ac.size[0xf0]) // ZRL
				run -= 16
			}
			s := refMagnitude(zz[k])
			sym := byte(run<<4 | s)
			w.write(ac.code[sym], ac.size[sym])
			v := zz[k]
			if v < 0 {
				v += 1<<uint(s) - 1
			}
			w.write(uint32(v), s)
			run = 0
		}
		if run > 0 {
			w.write(ac.code[0x00], ac.size[0x00]) // EOB
		}
	}

	sampleBlock := func(plane []byte, pw, ph, x0, y0, step int) [64]float64 {
		var b [64]float64
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				// Average step x step source samples (chroma subsampling).
				var sum, n int32
				for dy := 0; dy < step; dy++ {
					for dx := 0; dx < step; dx++ {
						sx, sy := x0+(x*step)+dx, y0+(y*step)+dy
						if sx >= pw {
							sx = pw - 1
						}
						if sy >= ph {
							sy = ph - 1
						}
						sum += int32(plane[sy*pw+sx])
						n++
					}
				}
				b[y*8+x] = float64(sum)/float64(n) - 128
			}
		}
		return b
	}

	mcuIdx := 0
	rstSeq := 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			if restart > 0 && mcuIdx > 0 && mcuIdx%restart == 0 {
				// Flush to a byte boundary, emit RSTn, reset predictors.
				w.flush()
				out = append(out, w.buf...)
				w.buf = w.buf[:0]
				emit(0xff, byte(0xd0+rstSeq%8))
				rstSeq++
				dcPrev = [3]int32{}
			}
			mcuIdx++
			// Luma blocks.
			for by := 0; by < vs; by++ {
				for bx := 0; bx < hs; bx++ {
					b := sampleBlock(yP, img.W, img.H, mx*mcuW+bx*8, my*mcuH+by*8, 1)
					encodeBlock(&b, &lq, dcL, acL, 0)
				}
			}
			// Chroma blocks (one each, possibly subsampled).
			step := hs // 1 for 4:4:4, 2 for 4:2:0
			cb := sampleBlock(cbP, img.W, img.H, mx*mcuW, my*mcuH, step)
			encodeBlock(&cb, &cq, dcC, acC, 1)
			cr := sampleBlock(crP, img.W, img.H, mx*mcuW, my*mcuH, step)
			encodeBlock(&cr, &cq, dcC, acC, 2)
		}
	}
	w.flush()
	out = append(out, w.buf...)
	emit(0xff, 0xd9) // EOI
	return out
}
