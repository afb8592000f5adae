package simbricks

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nexsim/internal/xrand"
)

// TestRingRoundTrip exercises single-goroutine push/pop including wrap
// records.
func TestRingRoundTrip(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("msg-%03d-%s", i, "padpadpad"[:i%10]))
		r.Push(msg)
		var got []byte
		r.Pop(func(p []byte) { got = append(got[:0], p...) })
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted: %q != %q", i, got, msg)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not drained: %d bytes left", r.Len())
	}
}

// TestRingConcurrentRandomized runs a producer and a consumer goroutine
// with randomized message sizes and yields; under -race this pins the
// cross-goroutine safety of the ring (satellite: concurrent
// simbricks.Channel transport).
func TestRingConcurrentRandomized(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			const n = 4000
			// Small capacity forces frequent wraps and full-ring stalls.
			r := NewRing(256)
			rng := xrand.New(0xabc1 + uint64(trial)*977)
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = rng.Intn(120) // 0..119 bytes, many wraps
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 128)
				for i := 0; i < n; i++ {
					msg := buf[:sizes[i]]
					for j := range msg {
						msg[j] = byte(i + j)
					}
					r.Push(msg)
				}
			}()
			for i := 0; i < n; i++ {
				var got []byte
				r.Pop(func(p []byte) { got = append(got[:0], p...) })
				if len(got) != sizes[i] {
					t.Fatalf("message %d: got %d bytes, want %d", i, len(got), sizes[i])
				}
				for j := range got {
					if got[j] != byte(i+j) {
						t.Fatalf("message %d byte %d corrupted", i, j)
					}
				}
			}
			wg.Wait()
			if r.Len() != 0 {
				t.Fatalf("ring not drained: %d bytes left", r.Len())
			}
		})
	}
}

// TestRingOversizePanics pins the bounded contract.
func TestRingOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize Push did not panic")
		}
	}()
	NewRing(64).Push(make([]byte, 64))
}

// TestChannelCrossGoroutineHandoff moves a channel between a producer
// on one goroutine and a consumer on another, the way SimBricks' two
// simulator processes share a queue: the ring's atomic indices carry
// the happens-before edges.
func TestChannelCrossGoroutineHandoff(t *testing.T) {
	ch := NewChannel(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			ch.send(msgDMA, 7, uint64(i), 42, []byte{byte(i), byte(i >> 8)})
		}
	}()
	for i := 0; i < 100; i++ {
		typ, ts, addr, aux, p := ch.recv()
		if typ != msgDMA || ts != 7 || addr != uint64(i) || aux != 42 ||
			len(p) != 2 || p[0] != byte(i) {
			t.Fatalf("message %d corrupted: typ=%d ts=%v addr=%d", i, typ, ts, addr)
		}
	}
	<-done
}
