package jpeg

import (
	"math"
	"testing"

	"nexsim/internal/xrand"
)

// TestDCTMatchesReference: the forward transform returns the reference's
// coefficients bit for bit on level-shifted blocks; the inverse returns
// its samples on dequantized blocks of every sparsity — all zero, DC
// only, whole rows zero, dense — equal as values (a zero's sign is the
// one thing skipping zero rows may change) and equal after the decoder's
// rounding and clamping.
func TestDCTMatchesReference(t *testing.T) {
	rng := xrand.New(34)
	var in, got, want [64]float64
	for n := 0; n < 2000; n++ {
		for i := range in {
			in[i] = float64(rng.Intn(256) - 128)
			if n%5 == 0 {
				in[i] = float64(rng.Intn(1<<20)-1<<19) / 977 // off the integer grid
			}
		}
		fdct8x8(&in, &got)
		refFdct8x8(&in, &want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("block %d: fdct[%d] = %v, reference %v", n, i, got[i], want[i])
			}
		}

		// Nonzero rows: none, the first only, or a random set; in each, a
		// random number of quantized coefficients.
		rows := [3]uint8{0, 1, uint8(rng.Uint64())}[n%3]
		for i := range in {
			in[i] = 0
			if rows>>(i/8)&1 != 0 && rng.Intn(1+n%8) == 0 {
				in[i] = float64((rng.Intn(2047) - 1023) * (1 + rng.Intn(99)))
			}
		}
		if n%7 == 0 {
			in[0] = float64(rng.Intn(2047) - 1023)
		}
		idct8x8(&in, &got)
		refIdct8x8(&in, &want)
		for i := range got {
			if got[i] != want[i] || clamp8(int32(got[i]+128.5)) != clamp8(int32(want[i]+128.5)) {
				t.Fatalf("block %d: idct[%d] = %v, reference %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMagnitudeMatchesReference(t *testing.T) {
	vals := []int32{0, 1, -1, 2, -2, 3, -3, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1}
	for k := 0; k < 31; k++ {
		vals = append(vals, 1<<k, -(1 << k), 1<<k-1, -(1<<k - 1), 1<<k+1, -(1<<k + 1))
	}
	rng := xrand.New(35)
	for i := 0; i < 1000; i++ {
		vals = append(vals, int32(rng.Uint64()))
	}
	for _, v := range vals {
		if got, want := magnitude(v), refMagnitude(v); got != want {
			t.Fatalf("magnitude(%d) = %d, reference %d", v, got, want)
		}
	}
}

// Every lookahead entry is what the serial loop decodes from its nine
// bits, on the standard tables and on random ones — overfull counts whose
// code ranges overlap and run past two to the length, value lists shorter
// than the counts.
func TestLookaheadMatchesSerialLoop(t *testing.T) {
	tables := []*huffTable{stdDCLuma, stdACLuma, stdDCChroma, stdACChroma}
	rng := xrand.New(36)
	for n := 0; n < 500; n++ {
		var bits [16]byte
		for l := range bits {
			if rng.Intn(3) == 0 {
				bits[l] = byte(rng.Intn([3]int{4, 1 << (l + 1), 256}[n%3]))
			}
		}
		vals := make([]byte, rng.Intn(300))
		for i := range vals {
			vals[i] = byte(rng.Uint64())
		}
		tables = append(tables, buildHuff(bits, vals))
	}
	for n, tab := range tables {
		for v := range tab.look {
			var want uint16
			for l := 1; l <= lookBits; l++ {
				c := int32(v >> (lookBits - l))
				if tab.maxCode[l] >= 0 && c <= tab.maxCode[l] && c >= tab.minCode[l] {
					if idx := tab.valPtr[l] + int(c-tab.minCode[l]); idx < len(tab.vals) {
						want = uint16(l)<<8 | uint16(tab.vals[idx])
					}
					break
				}
			}
			if tab.look[v] != want {
				t.Fatalf("table %d: look[%#03x] = %#04x, the serial loop gives %#04x", n, v, tab.look[v], want)
			}
		}
	}
}
