package lpn

import (
	"fmt"
	"testing"

	"nexsim/internal/vclock"
)

// benchChain builds a linear pipeline of n transitions. One injected
// token causes n firings; the rescan engine pays O(n) per firing (O(n²)
// per traversal) while the incremental engine pays O(log n).
func benchChain(n int) (*Net, *Place, *Place) {
	net := New(fmt.Sprintf("chain-%d", n))
	first := net.AddPlace("p0", 0)
	prev := first
	for i := 0; i < n; i++ {
		next := net.AddPlace(fmt.Sprintf("p%d", i+1), 0)
		net.AddTransition(&Transition{
			Name:  fmt.Sprintf("t%d", i),
			In:    []Arc{{Place: prev}},
			Out:   []OutArc{{Place: next}},
			Delay: Const(3),
		})
		prev = next
	}
	return net, first, prev
}

// drain pushes one token through the whole chain and removes it at the
// end, so repeated calls run against steady-state place sizes.
func drain(net *Net, in, out *Place, adv func(vclock.Time) int) {
	net.Inject(in, Tok(net.Now(), 1))
	adv(net.Now() + vclock.Time(1<<40))
	out.Pop()
}

// BenchmarkAdvance pushes one token through an n-stage pipeline (n
// firings per op) on the incremental engine vs the reference rescan.
func BenchmarkAdvance(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("incremental/%d", size), func(b *testing.B) {
			net, in, out := benchChain(size)
			drain(net, in, out, net.Advance) // warm up scratch + seal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(net, in, out, net.Advance)
			}
		})
		b.Run(fmt.Sprintf("reference/%d", size), func(b *testing.B) {
			net, in, out := benchChain(size)
			drain(net, in, out, net.scanAdvance)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(net, in, out, net.scanAdvance)
			}
		})
	}
}

// BenchmarkNextEvent probes the next firing time of a quiescent-but-loaded
// 256-stage net: the reference engine rescans all transitions per call,
// the incremental engine answers from the heap top.
func BenchmarkNextEvent(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		net, in, _ := benchChain(256)
		net.Inject(in, Tok(1<<30, 1)) // future token: net stays loaded
		net.NextEvent()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.NextEvent()
		}
	})
	b.Run("reference", func(b *testing.B) {
		net, in, _ := benchChain(256)
		net.Inject(in, Tok(1<<30, 1))
		net.scanNextEvent()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.scanNextEvent()
		}
	})
}
