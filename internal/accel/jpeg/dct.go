package jpeg

import "math"

// cosTable[u][x] = cos((2x+1)uπ/16) * c(u), precomputed for the 1-D DCT;
// cosTableT is its transpose, cosTableT[x][u] = cosTable[u][x].
var cosTable, cosTableT [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		c := 1.0
		if u == 0 {
			c = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			cosTable[u][x] = c * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16)
			cosTableT[x][u] = cosTable[u][x]
		}
	}
}

// fdct8x8 computes the forward 8x8 DCT of a level-shifted block
// (values in [-128,127]), producing unquantized coefficients: rows, then
// columns, each output the halved sum of its eight products in ascending
// input order (DESIGN.md §4.3).
func fdct8x8(in *[64]float64, out *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ {
		dct8(&tmp, in, y*8, 1, 0xff, &cosTableT)
	}
	for u := 0; u < 8; u++ {
		dct8(out, &tmp, u, 8, 0xff, &cosTableT)
	}
}

// idct8x8 computes the inverse 8x8 DCT of dequantized coefficients,
// producing level-shifted samples. Rows of in that are all zero are
// skipped in both passes: their products are exact zeros, which change no
// nonzero sum and at most the sign of a zero one.
func idct8x8(in *[64]float64, out *[64]float64) {
	var rows uint8
	for v := 0; v < 8; v++ {
		r := in[v*8 : v*8+8]
		if r[0] != 0 || r[1] != 0 || r[2] != 0 || r[3] != 0 || r[4] != 0 || r[5] != 0 || r[6] != 0 || r[7] != 0 {
			rows |= 1 << v
		}
	}
	var tmp [64]float64
	for v := 0; v < 8; v++ {
		if rows>>v&1 != 0 {
			dct8(&tmp, in, v*8, 1, 0xff, &cosTable)
		}
	}
	for x := 0; x < 8; x++ {
		dct8(out, &tmp, x, 8, rows, &cosTable)
	}
}

// dct8 is one 1-D pass over eight samples src[off+k·stride]:
// dst[off+j·stride] = Σ_k src[off+k·stride]·tab[k][j] / 2, summed in
// ascending k over the k set in use. The eight sums are computed together
// in eight scalar accumulators (an array would live on the stack), each
// in the order the one-output-at-a-time loop used; the float64
// conversions keep every product rounded on its own, so no architecture
// fuses it into an FMA.
//
//simlint:hotpath eight times per row pass and per column pass of every 8x8 block the codec transforms
func dct8(dst, src *[64]float64, off, stride int, use uint8, tab *[8][8]float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for k := 0; k < 8; k++ {
		if use>>k&1 == 0 {
			continue
		}
		a, t := src[off+k*stride], &tab[k]
		s0 += float64(a * t[0])
		s1 += float64(a * t[1])
		s2 += float64(a * t[2])
		s3 += float64(a * t[3])
		s4 += float64(a * t[4])
		s5 += float64(a * t[5])
		s6 += float64(a * t[6])
		s7 += float64(a * t[7])
	}
	dst[off] = s0 / 2
	dst[off+stride] = s1 / 2
	dst[off+2*stride] = s2 / 2
	dst[off+3*stride] = s3 / 2
	dst[off+4*stride] = s4 / 2
	dst[off+5*stride] = s5 / 2
	dst[off+6*stride] = s6 / 2
	dst[off+7*stride] = s7 / 2
}
