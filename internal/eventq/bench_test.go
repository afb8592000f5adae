package eventq

import (
	"testing"

	"nexsim/internal/vclock"
)

// BenchmarkPushPop measures the schedule+dispatch cycle that every
// engine's inner loop pays per event.
func BenchmarkPushPop(b *testing.B) {
	var q Queue
	for i := 0; i < b.N; i++ {
		q.At(q.Now()+vclock.Time(i%64), func(vclock.Time) {})
		if i%64 == 63 {
			for q.Step() {
			}
		}
	}
}
