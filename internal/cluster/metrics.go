package cluster

import "nexsim/internal/metrics"

// routerMetrics is the router's operational counter set, served on
// /metrics by the registry in the same `name value` /
// `name{label} value` format the shards use. Membership, Admission and
// the edge cache own their counters (they exist without a router too);
// the router registers them on its page.
type routerMetrics struct {
	reg *metrics.Registry

	requestsTotal *metrics.Counter // POST /jobs requests handled
	specsTotal    *metrics.Counter // specs routed (batch members counted singly)
	badRequests   *metrics.Counter // malformed bodies / invalid specs
	noShards      *metrics.Counter // requests refused because no shard was live
	shedded       *metrics.Counter // requests refused 429 (shard backpressure exhausted)
	failovers     *metrics.Counter // groups re-routed after a dead/refusing shard

	hedgesLaunched  *metrics.Counter // speculative duplicate sub-batches started
	hedgesWon       *metrics.Counter // hedges whose answer was served
	hedgesWasted    *metrics.Counter // duplicate answers that lost the race
	probeCompares   *metrics.Counter // duplicate answers byte-compared
	probeMismatches *metrics.Counter // determinism violations across shards

	admissionRejects *metrics.Counter // requests refused by the tenant gate

	forwards      *metrics.CounterVec // sub-batches sent, by shard
	forwardErrors *metrics.CounterVec // transport/5xx failures, by shard
	inflight      *metrics.CounterVec // outstanding sub-batches, by shard (gauge; also the bounded-load signal)
}

// newRouterMetrics builds r's registry; registration order is page
// order.
func newRouterMetrics(r *Router) *routerMetrics {
	reg := metrics.New()
	m := &routerMetrics{
		reg:              reg,
		requestsTotal:    reg.Counter("simrouter_requests_total"),
		specsTotal:       reg.Counter("simrouter_specs_total"),
		badRequests:      reg.Counter("simrouter_bad_requests"),
		noShards:         reg.Counter("simrouter_no_live_shards"),
		shedded:          reg.Counter("simrouter_shed_429"),
		failovers:        reg.Counter("simrouter_failovers"),
		hedgesLaunched:   reg.Counter("simrouter_hedges_launched"),
		hedgesWon:        reg.Counter("simrouter_hedges_won"),
		hedgesWasted:     reg.Counter("simrouter_hedges_wasted"),
		probeCompares:    reg.Counter("simrouter_probe_compares"),
		probeMismatches:  reg.Counter("simrouter_probe_mismatches"),
		admissionRejects: reg.Counter("simrouter_admission_rejects"),
	}
	reg.Register(r.mem.marksDown, r.mem.readmits, r.mem.quarantines)
	reg.Func(func(e *metrics.Encoder) {
		for _, shard := range r.ring.Shards() {
			up := int64(0)
			if r.mem.Live(shard) {
				up = 1
			}
			e.Int("simrouter_shard_up", up, "shard", shard)
			e.Int("simrouter_shard_state", 1, "shard", shard, "state", r.mem.State(shard))
		}
	})
	m.forwards = reg.CounterVec("simrouter_shard_forwards", "shard")
	m.forwardErrors = reg.CounterVec("simrouter_shard_forward_errors", "shard")
	m.inflight = reg.CounterVec("simrouter_shard_inflight", "shard")
	for _, shard := range r.ring.Shards() {
		// Every shard renders from the start, not from its first forward.
		m.forwards.With(shard)
		m.forwardErrors.With(shard)
		m.inflight.With(shard)
	}
	if r.adm != nil {
		reg.Register(r.adm.admitted, r.adm.rejected)
	}
	r.edge.register(reg)
	return m
}
