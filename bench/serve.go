package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexsim/internal/cluster"
	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/simserve"
)

// serveBenches are the specs the serving mix is drawn over: host=nex
// accel=dsim, 0.3–6 ms of engine time each.
var serveBenches = []string{
	"protoacc-bench3", "jpeg-mt.4", "npb-ep.8", "vta-matmul", "vta-resnet18", "protoacc-bench0",
}

// Serving constants (frozen with the bounds in bounds.md).
const (
	serveShards       = 3
	serveCacheEntries = 256
	serveClients      = 2 // nproc of the reference box
	serveTenants      = 4
	rateLo            = 300.0 // req/s: far from saturation
	rateHi            = 900.0 // req/s: queues form behind cold runs
	lateLimitMS       = 250.0 // an answer later than this counts as failed
	// Shares of a round's measuring time given to the three phases
	// (8 s, 4 s and 3 s of a full 15 s round).
	shareLo     = 8.0 / 15
	shareHi     = 4.0 / 15
	shareClosed = 3.0 / 15
	// warmPrefill is how many of the most popular warm keys set-up
	// submits, so the result caches start full and the LRU evicts from
	// the first timed request on.
	warmPrefill = serveShards * serveCacheEntries
	// sampleKeys is how many warm keys join the 32 hot keys in the
	// 64-spec sample whose routed, direct-shard and resubmitted bytes
	// are compared, and whose bytes the golden digest covers.
	sampleKeys = 32
)

// serveKey is one request the generator can send.
type serveKey struct {
	id   string
	body []byte // POST /jobs body: {"specs":[spec],"wait":true}
}

// newServeKey builds the request for one spec of the mix: key k of a
// class gets bench k mod 6 and its own calibration seed, so every key
// is a distinct content address.
func newServeKey(seed uint64, class string, k int) (serveKey, error) {
	spec := experiments.Spec{Bench: serveBenches[k%len(serveBenches)], Host: "nex", Accel: "dsim",
		Seed: calSeed(seed, ServeMix+"/"+class) + uint64(k)}
	id, err := spec.ID()
	if err != nil {
		return serveKey{}, err
	}
	body, err := json.Marshal(struct {
		Specs []experiments.Spec `json:"specs"`
		Wait  bool               `json:"wait"`
	}{[]experiments.Spec{spec}, true})
	return serveKey{id: id, body: body}, err
}

// tier is the serving path under test, assembled in this process on
// real loopback sockets: router handler → shard handlers → engine.
type tier struct {
	shards     []*simserve.Server
	shardAddrs []string
	router     *cluster.Router
	routerAddr string
	servers    []*http.Server
	serving    sync.WaitGroup
	client     *http.Client
	stateDir   string
	// tracer is non-nil only during the traced phase; the handler and
	// runner wrappers read it on every call.
	tracer   atomic.Pointer[Tracer]
	atRouter spanIndex
	atShard  spanIndex
}

// spanIndex maps a content address to the span currently open for it at
// one layer, so the next layer down can name its parent (the router
// forwards no request-id header; the content address is the only
// identifier all three layers share).
type spanIndex struct {
	mu   sync.Mutex
	open map[string]int
}

func (x *spanIndex) put(key string, span int) {
	x.mu.Lock()
	if x.open == nil {
		x.open = map[string]int{}
	}
	x.open[key] = span
	x.mu.Unlock()
}

func (x *spanIndex) get(key string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.open[key]
}

func (x *spanIndex) drop(key string, span int) {
	x.mu.Lock()
	if x.open[key] == span {
		delete(x.open, key)
	}
	x.mu.Unlock()
}

// Header names the traced client uses to hand its span to the router
// wrapper.
const (
	spanHeader = "X-Bench-Span"
	keyHeader  = "X-Bench-Key"
)

// basePort is where the tier's listeners start. The router's ring
// hashes shard addresses, so with ephemeral ports every process would
// place the keys differently (another spread of the hot set over the
// one-worker shards, another split of the warm keys over the caches):
// fixed ports (below the kernel's ephemeral range) make placement, and
// with it the load balance, the same in every run.
const basePort = 23900

// listen puts h behind a loopback listener on the first free port at or
// after basePort+slot and returns its address.
func (t *tier) listen(slot int, h http.Handler) (string, error) {
	var ln net.Listener
	var err error
	for port := basePort + slot; port < basePort+slot+200; port += 10 {
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
			break
		}
	}
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	spawn(&t.serving, func() { _ = srv.Serve(ln) }) // returns ErrServerClosed on close
	return ln.Addr().String(), nil
}

// newTier opens the shards (each with its own state directory, so the
// WAL is live), the router with admission on, and the client.
func newTier(stateDir string) (*tier, error) {
	t := &tier{stateDir: stateDir}
	for i := 0; i < serveShards; i++ {
		srv, err := simserve.Open(simserve.Config{
			Workers:      1,
			CacheEntries: serveCacheEntries,
			StateDir:     filepath.Join(stateDir, fmt.Sprintf("shard%d", i)),
			ShardID:      fmt.Sprintf("shard%d", i),
			Runner:       t.runner,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, srv)
		addr, err := t.listen(i, t.wrapShard(srv.Handler()))
		if err != nil {
			t.close()
			return nil, err
		}
		t.shardAddrs = append(t.shardAddrs, addr)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: t.shardAddrs,
		// Admission on, with a rate no phase reaches: the gate's cost
		// is on the path, its rejections are not.
		Admission: cluster.AdmissionConfig{RatePerSec: 1e6},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = router
	router.Start()
	if t.routerAddr, err = t.listen(serveShards, t.wrapRouter(router.Handler())); err != nil {
		t.close()
		return nil, err
	}
	t.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
	}
	return t, nil
}

// close tears the tier down and removes its state directory.
func (t *tier) close() {
	if t.router != nil {
		t.router.Close()
	}
	for _, srv := range t.servers {
		_ = srv.Close()
	}
	t.serving.Wait()
	for _, s := range t.shards {
		s.Close()
	}
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	_ = os.RemoveAll(t.stateDir)
}

// runner is the shards' simserve.Config.Runner: the default engine call
// with an "engine" span around it when the traced phase is on.
func (t *tier) runner(spec experiments.Spec, attempt int) (core.Result, error) {
	tr := t.tracer.Load()
	span := 0
	if tr != nil {
		if id, err := spec.ID(); err == nil {
			span = tr.Begin("engine", t.atShard.get(id), id)
		}
	}
	res, err := experiments.RunSpecAttempt(spec, attempt, 0)
	tr.End(span)
	return res, err
}

// wrapRouter records a "cluster.handler" span per traced submit.
func (t *tier) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tracer.Load()
		key := r.Header.Get(keyHeader)
		if tr == nil || key == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		span := tr.Begin("cluster.handler", parent, key)
		t.atRouter.put(key, span)
		h.ServeHTTP(w, r)
		t.atRouter.drop(key, span)
		tr.End(span)
	})
}

// wrapShard records a "simserve.handler" span per traced submit. The
// router forwards only the body, so the content address is recomputed
// from it.
func (t *tier) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tracer.Load()
		if tr == nil || r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Specs []experiments.Spec `json:"specs"`
		}
		key := ""
		if json.Unmarshal(body, &req) == nil && len(req.Specs) == 1 {
			if id, err := req.Specs[0].ID(); err == nil {
				key = id
			}
		}
		if key == "" {
			h.ServeHTTP(w, r)
			return
		}
		span := tr.Begin("simserve.handler", t.atRouter.get(key), key)
		t.atShard.put(key, span)
		h.ServeHTTP(w, r)
		t.atShard.drop(key, span)
		tr.End(span)
	})
}

// answer is the outcome of one submit.
type answer struct {
	status int
	result []byte // the canonical JobResult bytes of the single spec
	err    error
}

// resultsPrefix frames a wait=true response: {"results":[<result>]}\n.
const resultsPrefix = `{"results":[`

// submit POSTs one single-spec wait=true job to addr and returns the
// result bytes.
func (t *tier) submit(addr string, k serveKey, tenant string, span int) answer {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		"http://"+addr+"/jobs", bytes.NewReader(k.body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(cluster.TenantHeader, tenant)
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
		req.Header.Set(keyHeader, k.id)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to report
	if err != nil {
		return answer{status: resp.StatusCode, err: err}
	}
	a := answer{status: resp.StatusCode}
	body = bytes.TrimSpace(body)
	if resp.StatusCode == http.StatusOK && bytes.HasPrefix(body, []byte(resultsPrefix)) && bytes.HasSuffix(body, []byte("]}")) {
		a.result = body[len(resultsPrefix) : len(body)-2]
	}
	return a
}

// check validates one answer against the key it was for: 200, the
// key's content address, no error field.
func (a answer) check(k serveKey) error {
	switch {
	case a.err != nil:
		return a.err
	case a.status != http.StatusOK:
		return fmt.Errorf("status %d", a.status)
	case a.result == nil:
		return fmt.Errorf("unframed response")
	case !bytes.Contains(a.result, []byte(`"id":"`+k.id+`"`)):
		return fmt.Errorf("answer is not for spec %.12s", k.id)
	case bytes.Contains(a.result, []byte(`"error"`)):
		return fmt.Errorf("spec %.12s failed: %.120s", k.id, a.result)
	}
	return nil
}

// scrape reads a /metrics page through a handler (no socket) and
// returns its unlabelled "name value" lines plus the sums of the
// labelled simserve_bench_wall_ms_sum / _count series.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil
	}
	h.ServeHTTP(rec, req)
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if base, _, labelled := strings.Cut(name, "{"); labelled {
			if base == "simserve_bench_wall_ms_sum" || base == "simserve_bench_wall_ms_count" {
				out[base] += v
			}
			continue
		}
		out[name] = v
	}
	return out
}

// shardTotals sums the shards' /metrics pages.
func (t *tier) shardTotals() map[string]float64 {
	total := map[string]float64{}
	for _, s := range t.shards {
		page := scrape(s.Handler())
		for _, name := range sortedKeys(page) {
			total[name] += page[name]
		}
	}
	return total
}
