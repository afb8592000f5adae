package jpeg

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Image is an RGB24 raster.
type Image struct {
	W, H int
	Pix  []byte // len = W*H*3
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, w*h*3)}
}

// Subsampling selects the chroma layout of encoded images.
type Subsampling int

const (
	Sub444 Subsampling = iota // no chroma subsampling
	Sub420                    // 2x2 chroma subsampling
)

// Encode produces a baseline JFIF bitstream for img at the given quality
// (1..100), with the requested chroma subsampling. The encoder exists to
// generate real bitstreams for the decoder stack (the paper samples
// Flickr/Div2k images; we synthesize content instead — see workloads).
func Encode(img *Image, quality int, sub Subsampling) []byte {
	return EncodeRestart(img, quality, sub, 0)
}

// EncodeRestart is Encode with a DRI restart interval (MCUs between
// RSTn markers; 0 disables restarts).
func EncodeRestart(img *Image, quality int, sub Subsampling, restart int) []byte {
	lq := scaleQuant(stdLumaQuant, quality)
	cq := scaleQuant(stdChromaQuant, quality)

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
		fdct8x8(block, &coef)
		var zz [64]int32
		quantize(&zz, &coef, q)
		// DC.
		diff := zz[0] - dcPrev[comp]
		dcPrev[comp] = zz[0]
		s := magnitude(diff)
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
			s := magnitude(zz[k])
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

	var b [64]float64
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
					sampleBlock(&b, yP, img.W, img.H, mx*mcuW+bx*8, my*mcuH+by*8, 1)
					encodeBlock(&b, &lq, stdDCLuma, stdACLuma, 0)
				}
			}
			// Chroma blocks (one each, possibly subsampled).
			step := hs // 1 for 4:4:4, 2 for 4:2:0
			sampleBlock(&b, cbP, img.W, img.H, mx*mcuW, my*mcuH, step)
			encodeBlock(&b, &cq, stdDCChroma, stdACChroma, 1)
			sampleBlock(&b, crP, img.W, img.H, mx*mcuW, my*mcuH, step)
			encodeBlock(&b, &cq, stdDCChroma, stdACChroma, 2)
		}
	}
	w.flush()
	out = append(out, w.buf...)
	emit(0xff, 0xd9) // EOI
	return out
}

// The encoder's four Huffman tables (Annex K.3), built once.
var (
	stdDCLuma   = buildHuff(stdDCLumaBits, stdDCLumaVals)
	stdACLuma   = buildHuff(stdACLumaBits, stdACLumaVals)
	stdDCChroma = buildHuff(stdDCChromaBits, stdDCChromaVals)
	stdACChroma = buildHuff(stdACChromaBits, stdACChromaVals)
)

// sampleBlock fills b with the level-shifted 8x8 block at (x0, y0) of a
// pw×ph plane, each sample the mean of step×step source samples
// (chroma subsampling), edges replicated.
//
//simlint:hotpath three or six times per MCU of every encoded image
func sampleBlock(b *[64]float64, plane []byte, pw, ph, x0, y0, step int) {
	if step == 1 {
		// One source sample each: float64(s)/1 is float64(s).
		for y := 0; y < 8; y++ {
			row := plane[min(y0+y, ph-1)*pw:][:pw]
			for x := 0; x < 8; x++ {
				b[y*8+x] = float64(row[min(x0+x, pw-1)]) - 128
			}
		}
		return
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
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
}

// quantize divides each coefficient by its quantizer and rounds half away
// from zero into zig-zag order. v + Copysign(0.5, v) is v+0.5 or v-0.5 as
// v's sign bit says, without a branch; for v = -0 it truncates to 0, as
// v+0.5 does.
//
//simlint:hotpath once per block of every encoded image
func quantize(zz *[64]int32, coef *[64]float64, q *[64]int32) {
	for i, z := range zigzag {
		v := coef[z] / float64(q[z])
		zz[i] = int32(v + math.Copysign(0.5, v))
	}
}

// magnitude categorizes a coefficient per F.1.2.1: the bit length of
// |v|. MinInt32 has no magnitude in int32 and gets category 0, as the
// shift loop this replaced gave it.
//
//simlint:hotpath twice per nonzero coefficient of every encoded block
func magnitude(v int32) int {
	if v < 0 {
		v = -v
	}
	return bits.Len32(uint32(max(v, 0)))
}

func toYCbCr(img *Image) (y, cb, cr []byte) {
	n := img.W * img.H
	y = make([]byte, n)
	cb = make([]byte, n)
	cr = make([]byte, n)
	for i := 0; i < n; i++ {
		r := int32(img.Pix[i*3])
		g := int32(img.Pix[i*3+1])
		b := int32(img.Pix[i*3+2])
		y[i] = clamp8((77*r + 150*g + 29*b) >> 8)
		cb[i] = clamp8(((-43*r - 85*g + 128*b) >> 8) + 128)
		cr[i] = clamp8(((128*r - 107*g - 21*b) >> 8) + 128)
	}
	return
}
