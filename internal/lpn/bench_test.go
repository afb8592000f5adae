package lpn

import (
	"fmt"
	"testing"

	"nexsim/internal/vclock"
)

// benchChain builds a linear pipeline of n transitions. One injected
// token causes n firings, and each firing scans all n transitions, so a
// traversal costs O(n²) on both engines. Every catalog net has at most 8
// transitions; the 64- and 256-stage chains show the cost off the
// catalog.
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
			Delay: constDelay(3),
		})
		prev = next
	}
	return net, first, prev
}

// drain pushes one token through the whole chain and removes it at the
// end, so repeated calls run against steady-state place sizes.
func drain(net *Net, in, out *Place, adv func(vclock.Time) int) {
	net.Inject(in, Tok(net.now, 1))
	adv(net.now + vclock.Time(1<<40))
	out.pop()
}

// BenchmarkAdvance pushes one token through an n-stage pipeline (n
// firings per op) on the engine vs the reference, which scans the same
// way but allocates a fresh Firing per firing.
func BenchmarkAdvance(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("scan/%d", size), func(b *testing.B) {
			net, in, out := benchChain(size)
			drain(net, in, out, net.Advance) // warm up the scratch
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

// BenchmarkNextEvent probes the next firing time of a loaded net whose
// one token waits in the future at its first stage: both engines scan
// every transition per call. 8 stages is the catalog's largest net; 256
// is the cost off the catalog.
func BenchmarkNextEvent(b *testing.B) {
	for _, size := range []int{8, 256} {
		for _, eng := range []string{"scan", "reference"} {
			b.Run(fmt.Sprintf("%s/%d", eng, size), func(b *testing.B) {
				net, in, _ := benchChain(size)
				net.Inject(in, Tok(1<<30, 1)) // future token: net stays loaded
				next := net.NextEvent
				if eng == "reference" {
					next = net.scanNextEvent
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next()
				}
			})
		}
	}
}
