package cluster

import (
	"math"
	"sync"
	"time"

	"nexsim/internal/metrics"
)

// AdmissionConfig parameterizes per-tenant token-bucket admission
// control. It sits above the shards' own 429 backpressure: the shards
// protect their queues from aggregate overload, the router protects
// tenants from each other. One admitted token corresponds to one spec
// (a batch of n specs costs n tokens), so a tenant's share is measured
// in simulation work, not in HTTP requests.
type AdmissionConfig struct {
	// RatePerSec is the steady-state token refill per weight unit
	// (specs/second). <= 0 disables admission control entirely.
	RatePerSec float64
	// BurstSec is the bucket depth in seconds of refill (default 4):
	// a weight-1 tenant can burst RatePerSec×BurstSec specs.
	BurstSec float64
	// Weights maps tenant names to relative shares; unlisted tenants
	// (including the anonymous default) get weight 1. A weight-3 tenant
	// refills and bursts 3× a weight-1 tenant — weighted fair shares
	// rather than a single global ceiling.
	Weights map[string]float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// DefaultTenant is the bucket unlabeled requests (no X-Tenant header)
// share.
const DefaultTenant = "anonymous"

// bucket is one tenant's token bucket and its spec counters.
type bucket struct {
	tokens float64
	last   time.Time

	admitted, rejected *metrics.Counter
}

// Admission is the router's tenant gate. A nil *Admission admits
// everything (admission control off).
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[string]*bucket

	// Per-tenant spec counters; a router that adopts the gate registers
	// them on its /metrics page. A tenant's pair is created with its
	// bucket, so both lines render from its first request on.
	admitted, rejected *metrics.CounterVec
}

// NewAdmission builds the gate; returns nil (admit-all) when the rate
// is unset.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.RatePerSec <= 0 {
		return nil
	}
	if cfg.BurstSec <= 0 {
		cfg.BurstSec = 4
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Admission{
		cfg:      cfg,
		buckets:  map[string]*bucket{},
		admitted: metrics.NewCounterVec("simrouter_tenant_admitted", "tenant"),
		rejected: metrics.NewCounterVec("simrouter_tenant_rejected", "tenant"),
	}
}

// weight returns a tenant's configured share (default 1).
func (a *Admission) weight(tenant string) float64 {
	if w, ok := a.cfg.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Allow charges n specs against tenant's bucket. On rejection it
// returns the whole seconds (at least 1) until the bucket will have
// refilled enough for the request to pass — a deterministic function of
// the bucket state, suitable for a Retry-After header.
func (a *Admission) Allow(tenant string, n int) (ok bool, retryAfterSec int) {
	if a == nil {
		return true, 0
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	w := a.weight(tenant)
	rate := a.cfg.RatePerSec * w
	// The float64 conversions here and below round each product before
	// it meets a sum, so the quoted Retry-After is the same on every
	// architecture (none may fuse them into one FMA).
	depth := float64(rate * a.cfg.BurstSec)
	b := a.buckets[tenant]
	now := a.cfg.Now()
	if b == nil {
		b = &bucket{tokens: depth, last: now,
			admitted: a.admitted.With(tenant), rejected: a.rejected.With(tenant)}
		a.buckets[tenant] = b
	}
	b.tokens += float64(now.Sub(b.last).Seconds() * rate)
	if b.tokens > depth {
		b.tokens = depth
	}
	b.last = now
	need := float64(n)
	if need <= b.tokens {
		b.tokens -= need
		b.admitted.Add(int64(n))
		return true, 0
	}
	b.rejected.Add(int64(n))
	// A request larger than the bucket can ever hold would never pass;
	// quote the time to a full bucket (the best the tenant can do is
	// split the batch).
	deficit := need - b.tokens
	if need > depth {
		deficit = depth - b.tokens
	}
	sec := int(math.Ceil(deficit / rate))
	if sec < 1 {
		sec = 1
	}
	return false, sec
}
