package workloads

import (
	"nexsim/internal/accel/jpeg"
	"nexsim/internal/xrand"
)

// refSynthImage is the corpus synthesizer synthImage replaced, kept
// verbatim but for its name and this comment: synthImage must give the
// same raster for every size and stream (DESIGN.md §4.3, "functional
// kernels"). It generates deterministic photo-like content (gradients +
// soft blobs) so the entropy coder has realistic work.
func refSynthImage(w, h int, rng *xrand.Stream) *jpeg.Image {
	img := jpeg.NewImage(w, h)
	type blob struct{ cx, cy, r, ch, amp int }
	blobs := make([]blob, 8)
	for i := range blobs {
		blobs[i] = blob{rng.Intn(w), rng.Intn(h), rng.Intn(w/2 + 1), rng.Intn(3), 40 + rng.Intn(160)}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 3
			img.Pix[i] = byte(x * 255 / w)
			img.Pix[i+1] = byte(y * 255 / h)
			img.Pix[i+2] = byte((x + y) * 255 / (w + h))
			for _, b := range blobs {
				dx, dy := x-b.cx, y-b.cy
				if d := dx*dx + dy*dy; d < b.r*b.r+1 {
					v := int(img.Pix[i+b.ch]) + b.amp*(b.r*b.r-d)/(b.r*b.r+1)
					if v > 255 {
						v = 255
					}
					img.Pix[i+b.ch] = byte(v)
				}
			}
		}
	}
	return img
}
