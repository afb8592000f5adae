package workloads

import (
	"fmt"
	"slices"
	"testing"

	"nexsim/internal/xrand"
)

// catalogJPEGCorpora are the corpora of the catalog's JPEG benchmarks
// (JPEGBenches): four of 20 images and the filter benchmarks' one of 32.
var catalogJPEGCorpora = []JPEGConfig{
	{Images: 20, Seed: 101}, {Images: 20, Seed: 102}, {Images: 20, Seed: 103}, {Images: 20, Seed: 104},
	{Images: 32, Seed: 777},
}

func TestSynthImageMatchesReference(t *testing.T) {
	same := func(name string, w, h int, rng func() *xrand.Stream) {
		t.Helper()
		got, want := synthImage(w, h, rng()), refSynthImage(w, h, rng())
		if got.W != want.W || got.H != want.H || !slices.Equal(got.Pix, want.Pix) {
			t.Fatalf("%s: %dx%d raster differs from the reference's", name, w, h)
		}
	}
	for _, cfg := range catalogJPEGCorpora {
		for i, d := range jpegDraws(cfg) {
			same(fmt.Sprintf("seed %d image %d", cfg.Seed, i), d.w, d.h, func() *xrand.Stream {
				return jpegDraws(cfg)[i].rng
			})
		}
	}
	// Small edges, where blobs of radius 0 and blobs cut by every border
	// are common; the test fails if the seeds stop producing either.
	var radius0, clipped int
	for _, size := range [][2]int{{1, 1}, {1, 8}, {8, 1}, {8, 8}, {8, 64}, {64, 8}, {9, 17}, {120, 8}} {
		for seed := uint64(0); seed < 40; seed++ {
			w, h := size[0], size[1]
			rng := func() *xrand.Stream { return xrand.New(seed).Derive("synth") }
			blobs := rng()
			for b := 0; b < 8; b++ {
				cx, cy, r := blobs.Intn(w), blobs.Intn(h), blobs.Intn(w/2+1)
				blobs.Intn(3)
				blobs.Intn(160)
				if r == 0 {
					radius0++
				}
				if cx-r < 0 || cy-r < 0 || cx+r >= w || cy+r >= h {
					clipped++
				}
			}
			same(fmt.Sprintf("seed %d", seed), w, h, rng)
		}
	}
	if radius0 == 0 || clipped == 0 {
		t.Fatalf("%d blobs of radius 0 and %d cut by a border: the cases went untested", radius0, clipped)
	}
}

// Two configs that differ only in how their corpus is decoded and
// post-processed share the corpus: one synthesis, one copy in the memo.
func TestCorpusMemoKeysOnCorpusFields(t *testing.T) {
	base := JPEGConfig{Images: 3, MinSize: 16, MaxSize: 40, Seed: 9}
	other := base
	other.Threads, other.FilterPasses, other.Compress, other.ProbeRealistic = 8, 16, 10, true
	a, b := jpegCorpus(base), jpegCorpus(other)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("corpora of %d and %d images, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i].stream != b[i].stream {
			t.Fatalf("image %d: two blobs for one corpus", i)
		}
	}
	other = base
	other.Seed++
	if c := jpegCorpus(other); c[0].stream == a[0].stream {
		t.Fatal("another seed shares the corpus")
	}
}

// BenchmarkSynthImage reports ns per pixel of the corpus synthesizer next
// to the one it replaced, on the catalog's corpora and on one Div2K-size
// (2040×1352) image.
func BenchmarkSynthImage(b *testing.B) {
	for _, impl := range []struct {
		name  string
		synth func(w, h int, rng *xrand.Stream) int
	}{
		{"kernel", func(w, h int, rng *xrand.Stream) int { return len(synthImage(w, h, rng).Pix) / 3 }},
		{"ref", func(w, h int, rng *xrand.Stream) int { return len(refSynthImage(w, h, rng).Pix) / 3 }},
	} {
		b.Run("catalog/"+impl.name, func(b *testing.B) {
			px := 0
			for i := 0; i < b.N; i++ {
				for _, cfg := range catalogJPEGCorpora {
					for _, d := range jpegDraws(cfg) {
						px += impl.synth(d.w, d.h, d.rng)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(px), "ns/px")
		})
		b.Run("div2k/"+impl.name, func(b *testing.B) {
			px := 0
			for i := 0; i < b.N; i++ {
				px += impl.synth(2040, 1352, xrand.New(1).Derive("div2k"))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(px), "ns/px")
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/image")
		})
	}
}
