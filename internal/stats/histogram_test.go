package stats

import "testing"

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 3, 8} {
		h.Observe(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if h.Sum() != 14 {
		t.Fatalf("Sum = %v, want 14", h.Sum())
	}
	// Cumulative counts: <=1: {0.5, 1}, <=2: +{1.5}, <=4: +{3}, +Inf: +{8}.
	want := []int64{2, 3, 4, 5}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("Cumulative len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Cumulative[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestGeometricBounds(t *testing.T) {
	b := GeometricBounds(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("GeometricBounds = %v, want %v", b, want)
		}
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram() },
		func() { NewHistogram(2, 1) },
		func() { GeometricBounds(0, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid bounds")
				}
			}()
			f()
		}()
	}
}
