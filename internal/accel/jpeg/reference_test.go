package jpeg_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"nexsim/internal/accel/jpeg"
	"nexsim/internal/workloads"
	"nexsim/internal/xrand"
)

// catalogCorpora are the corpora of the catalog's JPEG benchmarks
// (workloads.JPEGBenches): four of 20 images and the filter benchmarks'
// one of 32.
var catalogCorpora = []workloads.JPEGConfig{
	{Images: 20, Seed: 101}, {Images: 20, Seed: 102}, {Images: 20, Seed: 103}, {Images: 20, Seed: 104},
	{Images: 32, Seed: 777},
}

// sameDecode decodes data with the decoder and with the reference and
// fails unless both return the same raster, DecodeStats and error.
func sameDecode(t testing.TB, name string, data []byte) {
	t.Helper()
	img, stats, err := jpeg.DecodeUncached(data)
	wantImg, wantStats, wantErr := jpeg.RefDecodeUncached(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: decode error %v, reference %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(img, wantImg) {
		t.Fatalf("%s: decoded raster differs from the reference's", name)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("%s: DecodeStats %+v, reference %+v", name, stats, wantStats)
	}
}

// sameEncode encodes img with the encoder and with the reference, fails
// unless the bitstreams are byte-equal, and returns the stream.
func sameEncode(t testing.TB, name string, img *jpeg.Image, quality int, sub jpeg.Subsampling, restart int) []byte {
	t.Helper()
	got := jpeg.EncodeRestart(img, quality, sub, restart)
	if want := jpeg.RefEncodeRestart(img, quality, sub, restart); !bytes.Equal(got, want) {
		t.Fatalf("%s: %d-byte stream differs from the reference's %d bytes", name, len(got), len(want))
	}
	return got
}

// randomImage is a w×h raster of uniformly random bytes, the encoder's
// worst case: every coefficient large, long codes, frequent 0xFF stuffing.
func randomImage(w, h int, seed uint64) *jpeg.Image {
	img := jpeg.NewImage(w, h)
	rng := xrand.New(seed)
	for i := range img.Pix {
		img.Pix[i] = byte(rng.Uint64())
	}
	return img
}

// TestEncodeMatchesReference encodes the catalog's corpora and random
// images of every edge class (1, under a block, a block, over it, odd
// multiples) at qualities from 1 to 100, in both subsamplings and at
// restart intervals 0–7, and decodes every stream with both decoders.
func TestEncodeMatchesReference(t *testing.T) {
	for _, cfg := range catalogCorpora {
		i := 0
		for src := range workloads.JPEGSources(cfg) {
			name := fmt.Sprintf("corpus %d image %d", cfg.Seed, i)
			sameDecode(t, name, sameEncode(t, name, src.Img, src.Quality, src.Sub, src.Restart))
			i++
		}
	}
	n := 0
	edges := []int{1, 7, 8, 9, 63, 121}
	for _, w := range edges {
		for _, h := range edges {
			for _, q := range []int{1, 50, 75, 92, 100} {
				for _, sub := range []jpeg.Subsampling{jpeg.Sub444, jpeg.Sub420} {
					name := fmt.Sprintf("%dx%d q%d sub%d restart %d", w, h, q, sub, n%8)
					img := randomImage(w, h, uint64(n))
					sameDecode(t, name, sameEncode(t, name, img, q, sub, n%8))
					n++
				}
			}
		}
	}
}

// TestDecodeMatchesReference feeds both decoders damaged catalog-style
// streams: truncated at every length of the tail, bytes flipped anywhere,
// Huffman table counts and values rewritten, restart markers removed or
// a DRI added that the scan does not honour.
func TestDecodeMatchesReference(t *testing.T) {
	rng := xrand.New(34)
	for s, stream := range testStreams(t) {
		name := func(what string, k int) string { return fmt.Sprintf("stream %d %s %d", s, what, k) }
		for cut := 0; cut <= len(stream); cut += 1 + cut/64 {
			sameDecode(t, name("cut at", cut), stream[:cut])
		}
		for k := 0; k < 300; k++ {
			data := bytes.Clone(stream)
			for j := 0; j <= k%3; j++ {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
			sameDecode(t, name("flip", k), data)
		}
		if dht := bytes.Index(stream, []byte{0xff, 0xc4}); dht >= 0 {
			for k := 0; k < 200; k++ {
				data := bytes.Clone(stream)
				// A count byte among the first table's BITS, or a value.
				data[dht+5+rng.Intn(16+12)] = byte(rng.Uint64())
				sameDecode(t, name("dht", k), data)
			}
		}
		for k := 0; k < 8; k++ {
			data := bytes.ReplaceAll(stream, []byte{0xff, 0xd0 + byte(k)}, nil)
			sameDecode(t, name("without RST", k), data)
		}
		sos := bytes.Index(stream, []byte{0xff, 0xda})
		for _, interval := range []uint16{1, 2, 5} {
			dri := []byte{0xff, 0xdd, 0, 4, 0, 0}
			binary.BigEndian.PutUint16(dri[4:], interval)
			data := append(append(bytes.Clone(stream[:sos]), dri...), stream[sos:]...)
			sameDecode(t, name("added DRI", int(interval)), data)
		}
	}
}

// testStreams are small encoded images: both subsamplings, with and
// without restart markers, the last at quality 100 (long codes, many
// stuffed bytes).
func testStreams(t *testing.T) [][]byte {
	var out [][]byte
	for i, c := range []struct {
		w, h, q, restart int
		sub              jpeg.Subsampling
	}{{48, 32, 85, 0, jpeg.Sub420}, {40, 24, 80, 0, jpeg.Sub444}, {64, 48, 75, 3, jpeg.Sub420}, {24, 24, 100, 1, jpeg.Sub444}} {
		img := jpeg.SynthImage(c.w, c.h, uint64(70+i))
		if c.q == 100 {
			img = randomImage(c.w, c.h, uint64(i))
		}
		out = append(out, sameEncode(t, fmt.Sprint("test stream ", i), img, c.q, c.sub, c.restart))
	}
	return out
}

// maxPlanePixels bounds what a fuzz input may make the decoders allocate.
const maxPlanePixels = 1 << 20

// planePixels is how many samples the SOF segments ahead of the first SOS
// declare: both decoders allocate a plane for every declared component,
// each the image's size rounded up to whole MCUs (at most 32 more samples
// a side), before they read a bit of the scan, so a few header bytes can
// ask for gigabytes.
func planePixels(data []byte) int {
	comps, area := 0, 0
	for pos := 2; pos+4 <= len(data) && data[pos] == 0xff; {
		m, l := data[pos+1], int(binary.BigEndian.Uint16(data[pos+2:]))
		if m == 0xda || m == 0xd9 || l < 2 || pos+2+l > len(data) {
			break
		}
		if (m == 0xc0 || m == 0xc1) && l >= 8 {
			h, w := int(binary.BigEndian.Uint16(data[pos+5:])), int(binary.BigEndian.Uint16(data[pos+7:]))
			comps += int(data[pos+9])
			area = max(area, (w+32)*(h+32))
		}
		pos += 2 + l
	}
	return comps * area
}

// FuzzDecodeMatchesReference: on any bytes, the decoder and the reference
// return the same raster, the same DecodeStats and the same error.
// Inputs that declare more than maxPlanePixels of planes are skipped.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if planePixels(data) > maxPlanePixels {
			t.Skip("declares more plane samples than the fuzz budget")
		}
		sameDecode(t, "input", data)
	})
}

// FuzzEncodeMatchesReference encodes an image of up to 80×80 pixels cut
// from the input — edges, quality, subsampling and restart interval from
// its first five bytes, pixels from the rest, repeated — with the encoder
// and the reference, and decodes the stream with both decoders.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		w, h := 1+int(in[0])%80, 1+int(in[1])%80
		quality, sub, restart := int(in[2])%101, jpeg.Subsampling(in[3]&1), int(in[4])%9
		img := jpeg.NewImage(w, h)
		if px := in[5:]; len(px) > 0 {
			for i := range img.Pix {
				img.Pix[i] = px[i%len(px)]
			}
		}
		sameDecode(t, "stream", sameEncode(t, "image", img, quality, sub, restart))
	})
}

// codecBenchImages are the catalog's corpora, and one Div2K-size
// (2040×1352) image, as the encoder benchmarks' sources.
func codecBenchImages() map[string][]workloads.JPEGSource {
	sets := map[string][]workloads.JPEGSource{}
	for _, cfg := range catalogCorpora {
		for src := range workloads.JPEGSources(cfg) {
			sets["catalog"] = append(sets["catalog"], src)
		}
	}
	sets["div2k"] = []workloads.JPEGSource{{Img: jpeg.SynthImage(2040, 1352, 1), Quality: 85, Sub: jpeg.Sub420}}
	return sets
}

// benchCodec runs one sub-benchmark per image set and implementation,
// reporting ns per pixel.
func benchCodec(b *testing.B, sets map[string][]workloads.JPEGSource, impls map[string]func(src workloads.JPEGSource, i int)) {
	for _, set := range []string{"catalog", "div2k"} {
		srcs := sets[set]
		px := 0
		for _, src := range srcs {
			px += src.Img.W * src.Img.H
		}
		for _, impl := range []string{"kernel", "ref"} {
			b.Run(set+"/"+impl, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					for i, src := range srcs {
						impls[impl](src, i)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*px), "ns/px")
			})
		}
	}
}

// BenchmarkEncode reports ns per pixel of the encoder next to the
// reference it replaced.
func BenchmarkEncode(b *testing.B) {
	benchCodec(b, codecBenchImages(), map[string]func(workloads.JPEGSource, int){
		"kernel": func(s workloads.JPEGSource, _ int) { jpeg.EncodeRestart(s.Img, s.Quality, s.Sub, s.Restart) },
		"ref":    func(s workloads.JPEGSource, _ int) { jpeg.RefEncodeRestart(s.Img, s.Quality, s.Sub, s.Restart) },
	})
}

// BenchmarkDecode reports ns per pixel of the decoder next to the
// reference it replaced, uncached, on the encoded benchmark images.
func BenchmarkDecode(b *testing.B) {
	sets := codecBenchImages()
	streams := map[*jpeg.Image][]byte{}
	for _, srcs := range sets {
		for _, s := range srcs {
			streams[s.Img] = jpeg.EncodeRestart(s.Img, s.Quality, s.Sub, s.Restart)
		}
	}
	decode := func(dec func([]byte) (*jpeg.Image, *jpeg.DecodeStats, error)) func(workloads.JPEGSource, int) {
		return func(s workloads.JPEGSource, _ int) {
			if _, _, err := dec(streams[s.Img]); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchCodec(b, sets, map[string]func(workloads.JPEGSource, int){
		"kernel": decode(jpeg.DecodeUncached),
		"ref":    decode(jpeg.RefDecodeUncached),
	})
}
