package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"nexsim/internal/experiments"
	"nexsim/internal/jobapi"
)

// RouterConfig parameterizes the cluster router.
type RouterConfig struct {
	// Shards is the static simd shard list (host:port).
	Shards []string
	// HedgeAfter launches a duplicate sub-batch on the next replica for
	// any wait=true forward still unanswered after this long; the first
	// answer wins and the loser is byte-compared as a determinism probe.
	// 0 disables hedging (failover on hard errors still applies).
	HedgeAfter time.Duration
	// ForwardTimeout caps one forwarded request (default 5m; it must
	// exceed the shards' wait timeout or long sweeps degrade to polls).
	ForwardTimeout time.Duration

	// Membership knobs (see MembershipConfig).
	ProbeInterval time.Duration
	FailThreshold int
	ReadmitOKs    int

	// DecayInterval is the period after which the hot tracker halves
	// every count (default 5s); edge admission needs two sightings of
	// an address inside one interval.
	DecayInterval time.Duration

	// Admission is the per-tenant token-bucket gate (zero RatePerSec
	// admits everything).
	Admission AdmissionConfig
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Minute
	}
	if c.DecayInterval <= 0 {
		c.DecayInterval = 5 * time.Second
	}
	return c
}

// Routing failures the HTTP layer maps to status codes.
var (
	errNoLiveShards = errors.New("cluster: no live shards")
	errShed         = errors.New("cluster: all replicas at capacity")
	errExhausted    = errors.New("cluster: all replicas failed")
)

// Router is the stateless cluster front end: it owns no simulation
// state, only soft state (liveness, hotness, in-flight counts, verified
// copies of hot results) that any replacement router rebuilds from
// traffic. Losing a router loses nothing but open connections.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	mem  *Membership
	adm  *Admission
	hot  *hotTracker
	edge *edgeCache

	clients map[string]*http.Client // per-shard connection pools
	m       *routerMetrics

	stop chan struct{}
}

// NewRouter builds a router over the static shard list, which must name
// each shard once. Call Start to launch the health-probe and decay
// loops, Close to stop them.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	for i, s := range cfg.Shards {
		if slices.Contains(cfg.Shards[:i], s) {
			return nil, fmt.Errorf("cluster: shard %q listed twice", s)
		}
	}
	r := &Router{
		cfg:  cfg,
		ring: NewRing(cfg.Shards, defaultVNodes),
		mem: NewMembership(MembershipConfig{
			Shards:        cfg.Shards,
			ProbeInterval: cfg.ProbeInterval,
			FailThreshold: cfg.FailThreshold,
			ReadmitOKs:    cfg.ReadmitOKs,
		}),
		adm:     NewAdmission(cfg.Admission),
		hot:     newHotTracker(),
		edge:    newEdgeCache(edgeBudget),
		clients: make(map[string]*http.Client, len(cfg.Shards)),
		stop:    make(chan struct{}),
	}
	r.m = newRouterMetrics(r)
	for _, s := range cfg.Shards {
		r.clients[s] = &http.Client{
			Timeout: cfg.ForwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return r, nil
}

// Start launches the background loops: periodic /healthz probing and
// the hot tracker's decay.
func (r *Router) Start() {
	r.mem.Start()
	go r.decayLoop()
}

// Close stops the background loops and drops the pooled keep-alive
// connections to the shards (each holds a read and a write goroutine
// until its peer hangs up). In-flight forwards complete on their own
// contexts.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.mem.Close()
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

// client returns the shard's pooled HTTP client. The map is immutable
// after NewRouter, so reads need no lock.
func (r *Router) client(shard string) *http.Client { return r.clients[shard] }

// specItem is one routed spec: its position in the client's batch, its
// normalized form, its content address (the placement key), and the hot
// tracker's count of that address (the edge cache's admission signal).
type specItem struct {
	idx  int
	spec experiments.Spec
	id   string
	seen float64
}

// itemResult is the routed outcome for one spec.
type itemResult struct {
	id     string
	status string          // simserve job status; "queued" when unknown
	result json.RawMessage // canonical JobResult bytes (wait=true, finished)
	shard  string          // shard that served it (determinism probe)
}

// --- HTTP surface ---

// TenantHeader names the request header carrying the tenant identity
// for admission control.
const TenantHeader = "X-Tenant"

// Handler returns the router's HTTP routes — the same job API the
// shards serve, so clients are oblivious to whether they talk to one
// simd or a cluster.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.Handle("GET /metrics", r.m.reg)
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", r.handleJob)
	return mux
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if r.mem.LiveCount() == 0 {
		http.Error(w, "no live shards", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	r.m.requestsTotal.Inc()
	badRequest := func(msg string) {
		r.m.badRequests.Inc()
		jobapi.WriteError(w, http.StatusBadRequest, msg)
	}
	sr, err := jobapi.DecodeSubmit(w, req)
	if err != nil {
		badRequest(err.Error())
		return
	}

	// Tenant gate first: an over-quota tenant must not cost normalization
	// work either.
	tenant := req.Header.Get(TenantHeader)
	if ok, retry := r.adm.Allow(tenant, len(sr.Specs)); !ok {
		r.m.admissionRejects.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		jobapi.WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over admission quota; retry after %ds", tenantLabel(tenant), retry))
		return
	}

	items := make([]specItem, len(sr.Specs))
	for i, spec := range sr.Specs {
		n, err := spec.Normalized()
		if err != nil {
			badRequest(fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		id, err := n.ID()
		if err != nil {
			badRequest(fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		items[i] = specItem{idx: i, spec: n, id: id, seen: r.hot.Note(id)}
	}
	r.m.specsTotal.Add(int64(len(items)))

	// Answer what the edge cache knows; only the rest crosses to a shard.
	// The generation is read before the forward so that a flush landing
	// while a shard answers keeps that answer out of the cache.
	gen := r.edge.generation()
	results := make([]itemResult, len(items))
	rest := items
	if sr.Wait {
		rest = r.edgeFill(items, results)
	}
	var routed []itemResult
	if len(rest) > 0 {
		routed, err = r.routeItems(req.Context(), rest, sr.Wait, nil)
	}
	if err != nil {
		switch {
		case errors.Is(err, errNoLiveShards):
			r.m.noShards.Inc()
			jobapi.WriteError(w, http.StatusServiceUnavailable, "no live shards")
		case errors.Is(err, errShed):
			r.m.shedded.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(jobapi.RetryAfterSecs(items[0].id)))
			jobapi.WriteError(w, http.StatusTooManyRequests, "cluster at capacity; resubmit")
		case errors.Is(err, req.Context().Err()):
			// Client went away; nothing to write.
		default:
			jobapi.WriteError(w, http.StatusBadGateway, fmt.Sprintf("forwarding failed: %v", err))
		}
		return
	}
	for j, res := range routed {
		it := rest[j]
		results[it.idx] = res
		if len(res.result) > 0 {
			r.edge.admit(it.id, it.seen, res.status == jobapi.StatusFailed, res.result, gen)
		}
	}

	if sr.Wait && allFinished(results) {
		raws := make([]json.RawMessage, len(results))
		for i, res := range results {
			raws[i] = res.result
		}
		jobapi.WriteJSON(w, http.StatusOK, jobapi.Results{Results: raws})
		return
	}
	statuses := make([]jobapi.JobStatus, len(results))
	for i, res := range results {
		statuses[i] = jobapi.JobStatus{ID: res.id, Status: res.status}
	}
	jobapi.WriteJSON(w, http.StatusAccepted, jobapi.Accepted{Jobs: statuses})
}

// edgeFill answers the items the edge cache holds into results (by batch
// position) and returns the items still to forward.
func (r *Router) edgeFill(items []specItem, results []itemResult) []specItem {
	var rest []specItem
	for _, it := range items {
		if e, ok := r.edge.get(it.id); ok {
			results[it.idx] = itemResult{id: it.id, status: e.Status(), result: e.Result}
		} else {
			rest = append(rest, it)
		}
	}
	return rest
}

func allFinished(results []itemResult) bool {
	for _, res := range results {
		if len(res.result) == 0 {
			return false
		}
	}
	return true
}

// handleJob resolves a poll by content address: the edge cache if it
// holds the id, else the first replica that knows it answers, so a
// result that landed on a hedge target is still found after its home
// shard forgets it.
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if e, ok := r.edge.get(id); ok {
		jobapi.WriteJSON(w, http.StatusOK, jobapi.JobPoll{ID: id, Status: e.Status(), Result: e.Result})
		return
	}
	for code, body := range r.replicaAnswers(id) {
		jobapi.WriteJSON(w, code, body)
		return
	}
	jobapi.WriteError(w, http.StatusNotFound, "unknown job "+id)
}

// replicaAnswers polls GET /jobs/{id} on id's live replicas in ring
// preference order and yields every well-formed answer (status code,
// JSON body) except "unknown job" — the walk behind client polls.
func (r *Router) replicaAnswers(id string) iter.Seq2[int, json.RawMessage] {
	return func(yield func(int, json.RawMessage) bool) {
		for _, shard := range r.ring.Order(id) {
			if !r.mem.Live(shard) {
				continue
			}
			resp, err := r.client(shard).Get(fmt.Sprintf("http://%s/jobs/%s", shard, id))
			if err != nil {
				r.mem.ReportFailure(shard)
				continue
			}
			var body json.RawMessage
			derr := json.NewDecoder(resp.Body).Decode(&body)
			drainClose(resp)
			if derr != nil || resp.StatusCode == http.StatusNotFound {
				continue
			}
			if !yield(resp.StatusCode, body) {
				return
			}
		}
	}
}

// drainClose reads what is left of a response body before closing it.
// net/http only returns a keep-alive connection to the pool once its
// body has been read to EOF; closing early tears the connection down,
// and under overload every refused forward would cost a fresh dial.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// tenantLabel names the bucket a request was charged to.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// groupByShard buckets items onto their bounded-load placements,
// excluding shards the caller has already failed over from. Group order
// is deterministic (sorted by shard name).
func (r *Router) groupByShard(items []specItem, exclude map[string]bool) (map[string][]specItem, error) {
	live := func(s string) bool { return r.mem.Live(s) && !exclude[s] }
	load := func(s string) int { return int(r.m.inflight.With(s).Load()) }
	groups := map[string][]specItem{}
	for _, it := range items {
		shard, ok := r.ring.BoundedPick(it.id, loadFactor, live, load)
		if !ok {
			if r.mem.LiveCount() == 0 {
				return nil, errNoLiveShards
			}
			return nil, errExhausted
		}
		groups[shard] = append(groups[shard], it)
	}
	return groups, nil
}

// sortedShardKeys returns a group map's keys in stable order.
func sortedShardKeys(groups map[string][]specItem) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
