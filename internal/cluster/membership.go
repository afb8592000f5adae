package cluster

import (
	"net/http"
	"sync"
	"time"

	"nexsim/internal/metrics"
)

// Shard liveness states. A shard starts Up (the static -shards list is
// trusted until proven dead), drops to Down after FailThreshold
// consecutive probe/forward failures, and climbs back through Probation
// — it must answer ReadmitOKs consecutive health probes before it
// takes traffic again, so a flapping shard can't oscillate into the
// ring on its first good poll.
const (
	StateUp        = "up"
	StateProbation = "probation"
	StateDown      = "down"
)

// MembershipConfig parameterizes liveness tracking.
type MembershipConfig struct {
	// Shards is the static member list (host:port, no scheme).
	Shards []string
	// ProbeInterval is the /healthz polling period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout caps one probe (default ProbeInterval, at most 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count that marks a shard
	// down (default 3). Forwarding errors count toward it too, so a dead
	// shard is usually marked down by the traffic that discovers it
	// rather than by the next poll.
	FailThreshold int
	// ReadmitOKs is the consecutive-success count a down shard must
	// answer before re-admission (default 2).
	ReadmitOKs int
	// Probe overrides the HTTP /healthz check (tests). It reports
	// whether the shard answered healthy.
	Probe func(shard string) bool
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout > 2*time.Second {
			c.ProbeTimeout = 2 * time.Second
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadmitOKs <= 0 {
		c.ReadmitOKs = 2
	}
	return c
}

// shardHealth is one member's liveness record.
type shardHealth struct {
	state       string
	consecFails int
	consecOKs   int
	quarantined bool // down due to a determinism-probe mismatch
}

// Membership tracks which shards of the static list are currently
// taking traffic, driven by periodic /healthz probes plus failure
// reports from the forwarding path.
type Membership struct {
	cfg    MembershipConfig
	client *http.Client

	mu     sync.Mutex
	health map[string]*shardHealth

	// Lifecycle counters; a router registers them on its /metrics page.
	marksDown, readmits, quarantines *metrics.Counter

	stop chan struct{}
}

// NewMembership builds the tracker with every shard initially up.
// Start launches the probe loop; a tracker that is never started is
// driven purely by ReportFailure/ReportSuccess (tests).
func NewMembership(cfg MembershipConfig) *Membership {
	cfg = cfg.withDefaults()
	m := &Membership{
		cfg:    cfg,
		health: make(map[string]*shardHealth, len(cfg.Shards)),
		client: &http.Client{Timeout: cfg.ProbeTimeout},

		marksDown:   metrics.NewCounter("simrouter_marks_down"),
		readmits:    metrics.NewCounter("simrouter_readmits"),
		quarantines: metrics.NewCounter("simrouter_quarantines"),

		stop: make(chan struct{}),
	}
	for _, s := range cfg.Shards {
		m.health[s] = &shardHealth{state: StateUp}
	}
	return m
}

// Start launches the background probe loop (stopped by Close).
func (m *Membership) Start() {
	go m.probeLoop()
}

// Close stops the probe loop (no-op if Start was never called — the
// loop drains on the stop channel either way).
func (m *Membership) Close() {
	select {
	case <-m.stop:
		return // already closed
	default:
	}
	close(m.stop)
}

func (m *Membership) probeLoop() {
	ticker := time.NewTicker(m.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.ProbeAll()
		}
	}
}

// ProbeAll runs one health poll over every shard (also callable
// directly by tests and the smoke-script-friendly /probe endpoint).
func (m *Membership) ProbeAll() {
	for _, s := range m.cfg.Shards {
		if m.probe(s) {
			m.ReportSuccess(s)
		} else {
			m.ReportFailure(s)
		}
	}
}

func (m *Membership) probe(shard string) bool {
	if m.cfg.Probe != nil {
		return m.cfg.Probe(shard)
	}
	resp, err := m.client.Get("http://" + shard + "/healthz")
	if err != nil {
		return false
	}
	drainClose(resp)
	return resp.StatusCode == http.StatusOK
}

// Live reports whether shard currently takes traffic. Unknown shards
// are dead by definition.
func (m *Membership) Live(shard string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[shard]
	return ok && h.state == StateUp
}

// LiveCount reports how many members currently take traffic.
func (m *Membership) LiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.health {
		if h.state == StateUp {
			n++
		}
	}
	return n
}

// ReportSuccess records a healthy interaction (probe answer or
// successful forward). A down shard advances through probation and
// re-admits after ReadmitOKs consecutive successes.
func (m *Membership) ReportSuccess(shard string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[shard]
	if !ok {
		return
	}
	h.consecFails = 0
	switch h.state {
	case StateUp:
	case StateDown, StateProbation:
		h.state = StateProbation
		h.consecOKs++
		if h.consecOKs >= m.cfg.ReadmitOKs {
			h.state = StateUp
			h.consecOKs = 0
			h.quarantined = false
			m.readmits.Inc()
		}
	}
}

// ReportFailure records a failed interaction. Up shards drop to down
// after FailThreshold consecutive failures; a probation shard drops
// back immediately (its recovery streak was broken).
func (m *Membership) ReportFailure(shard string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[shard]
	if !ok {
		return
	}
	h.consecOKs = 0
	switch h.state {
	case StateUp:
		h.consecFails++
		if h.consecFails >= m.cfg.FailThreshold {
			h.state = StateDown
			h.consecFails = 0
			m.marksDown.Inc()
		}
	case StateProbation:
		h.state = StateDown
	case StateDown:
	}
}

// Quarantine marks a shard down immediately, bypassing the failure
// threshold. The forwarder calls this when a determinism probe catches
// the shard returning bytes that differ from a replica's — a node whose
// answers can't be trusted must stop answering, whatever its /healthz
// says. Re-admission runs the normal probation path.
func (m *Membership) Quarantine(shard string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.health[shard]
	if !ok {
		return
	}
	if h.state != StateDown {
		m.marksDown.Inc()
	}
	h.state = StateDown
	h.consecFails = 0
	h.consecOKs = 0
	h.quarantined = true
	m.quarantines.Inc()
}

// State reports a shard's current liveness state (metrics).
func (m *Membership) State(shard string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.health[shard]; ok {
		if h.quarantined && h.state != StateUp {
			return h.state + " (quarantined)"
		}
		return h.state
	}
	return "unknown"
}
