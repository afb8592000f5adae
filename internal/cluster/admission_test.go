package cluster

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestAdmission(clk *fakeClock, rate, burst float64, weights map[string]float64) *Admission {
	return NewAdmission(AdmissionConfig{
		RatePerSec: rate, BurstSec: burst, Weights: weights, Now: clk.now,
	})
}

func TestAdmissionDisabledAdmitsEverything(t *testing.T) {
	if a := NewAdmission(AdmissionConfig{}); a != nil {
		t.Fatal("zero rate should build a nil (admit-all) gate")
	}
	var a *Admission
	ok, retry := a.Allow("anyone", 1_000_000)
	if !ok || retry != 0 {
		t.Fatalf("nil gate refused: ok=%v retry=%d", ok, retry)
	}
}

func TestAdmissionBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 10, 4, nil) // depth 40
	if ok, _ := a.Allow("t", 40); !ok {
		t.Fatal("full burst refused")
	}
	ok, retry := a.Allow("t", 1)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry < 1 {
		t.Fatalf("retry = %d, want >= 1", retry)
	}
	// Same state, same quote: the Retry-After is deterministic.
	if _, retry2 := a.Allow("t", 1); retry2 != retry {
		t.Fatalf("retry quote changed without time passing: %d vs %d", retry, retry2)
	}
	clk.advance(time.Second) // +10 tokens
	if ok, _ := a.Allow("t", 10); !ok {
		t.Fatal("refilled tokens refused")
	}
	if ok, _ := a.Allow("t", 1); ok {
		t.Fatal("bucket admitted beyond its refill")
	}
}

func TestAdmissionWeightedFairShares(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 10, 4, map[string]float64{"gold": 3})
	// gold bursts 3x the default share.
	if ok, _ := a.Allow("gold", 120); !ok {
		t.Fatal("gold tenant refused its weighted burst")
	}
	if ok, _ := a.Allow("bronze", 120); ok {
		t.Fatal("weight-1 tenant admitted a weight-3 burst")
	}
	if ok, _ := a.Allow("bronze", 40); !ok {
		t.Fatal("weight-1 tenant refused its own burst")
	}
	// Tenants are isolated: gold's empty bucket does not affect bronze's
	// refill, and vice versa.
	clk.advance(time.Second)
	if ok, _ := a.Allow("gold", 30); !ok {
		t.Fatal("gold refill refused")
	}
	if ok, _ := a.Allow("bronze", 10); !ok {
		t.Fatal("bronze refill refused")
	}
}

func TestAdmissionOversizedBatchQuotesFullBucket(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 10, 1, nil) // depth 10
	ok, retry := a.Allow("t", 100)         // can never pass whole
	if ok {
		t.Fatal("batch larger than the bucket admitted")
	}
	// Quote is time-to-full (1s from empty at 10/s), not time to 100
	// tokens that will never accumulate.
	if retry != 1 {
		t.Fatalf("retry = %d, want 1 (time to a full bucket)", retry)
	}
	clk.advance(time.Second)
	if ok, _ := a.Allow("t", 10); !ok {
		t.Fatal("full-bucket batch refused after the quoted wait")
	}
}

func TestAdmissionCounters(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, 1, 1, nil) // depth 1
	a.Allow("", 1)                        // anonymous
	a.Allow("", 1)                        // rejected
	admitted, rejected := a.admitted.With(DefaultTenant).Load(), a.rejected.With(DefaultTenant).Load()
	if admitted != 1 || rejected != 1 {
		t.Fatalf("counters = %v / %v, want 1 admitted and 1 rejected for %q",
			admitted, rejected, DefaultTenant)
	}
}
