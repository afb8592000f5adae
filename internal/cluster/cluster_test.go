package cluster

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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/jobapi"
	"nexsim/internal/simserve"
	"nexsim/internal/vclock"
)

// postJobs submits specs to addr's job API and returns the HTTP status
// and decoded body.
func postJobs(t *testing.T, addr, tenant string, specs []experiments.Spec, wait bool) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(struct {
		Specs []experiments.Spec `json:"specs"`
		Wait  bool               `json:"wait"`
	}{specs, wait})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// results decodes a 200 envelope into per-spec result bytes.
func decodeResults(t *testing.T, data []byte) []json.RawMessage {
	t.Helper()
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding results: %v (%s)", err, data)
	}
	return env.Results
}

// scrapeCounter sums one plain (unlabeled) counter across the given
// /metrics endpoints.
func scrapeCounter(t *testing.T, name string, addrs ...string) int64 {
	t.Helper()
	var total int64
	for _, addr := range addrs {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scraping %s: %v", addr, err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					t.Fatalf("bad counter line %q: %v", line, err)
				}
				total += v
			}
		}
	}
	return total
}

func shardAddrs(lc *LocalCluster) []string {
	addrs := make([]string, len(lc.Shards))
	for i, sh := range lc.Shards {
		addrs[i] = sh.Addr
	}
	return addrs
}

// The core cluster invariant end to end: a sweep routed across three
// shards returns byte-identical results to a single direct simd, and a
// repeat of the sweep is served from the shard caches without re-running
// any engine — and, once the router has seen it twice, without reaching
// a shard.
func TestRoutedSweepMatchesDirectAndHitsCache(t *testing.T) {
	specs := make([]experiments.Spec, 4)
	for i := range specs {
		specs[i] = experiments.Spec{Bench: "npb-ep.8", Seed: uint64(i + 1)}
	}

	direct := &LocalShard{Server: simserve.New(simserve.Config{})}
	if err := direct.serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { direct.Stop(); direct.Server.Close() }()
	code, _, body := postJobs(t, direct.Addr, "", specs, true)
	if code != http.StatusOK {
		t.Fatalf("direct sweep: HTTP %d: %s", code, body)
	}
	want := decodeResults(t, body)

	lc, err := NewLocal(3, simserve.Config{}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	code, _, body = postJobs(t, lc.RouterAddr, "", specs, true)
	if code != http.StatusOK {
		t.Fatalf("routed sweep: HTTP %d: %s", code, body)
	}
	got := decodeResults(t, body)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("spec %d: routed result differs from direct\n direct: %s\n routed: %s", i, want[i], got[i])
		}
	}

	// Repeat passes: no new engine work anywhere. The second sighting is
	// still forwarded (shard cache hits) and admits the results to the
	// router's edge cache; the third never reaches a shard.
	submittedBefore := scrapeCounter(t, "simserve_jobs_submitted", shardAddrs(lc)...)
	for pass, wantEdgeHits := range []int64{0, int64(len(specs))} {
		code, _, body = postJobs(t, lc.RouterAddr, "", specs, true)
		if code != http.StatusOK {
			t.Fatalf("routed repeat %d: HTTP %d: %s", pass, code, body)
		}
		again := decodeResults(t, body)
		for i := range want {
			if !bytes.Equal(want[i], again[i]) {
				t.Fatalf("repeat %d, spec %d: cached routed result differs from direct", pass, i)
			}
		}
		if after := scrapeCounter(t, "simserve_jobs_submitted", shardAddrs(lc)...); after != submittedBefore {
			t.Fatalf("repeat sweep %d ran %d fresh jobs, want 0", pass, after-submittedBefore)
		}
		if hits := scrapeCounter(t, "simrouter_edge_hits", lc.RouterAddr); hits != wantEdgeHits {
			t.Fatalf("repeat sweep %d: router edge hits = %d, want %d", pass, hits, wantEdgeHits)
		}
	}
}

// Membership churn mid-batch: the home shard of an in-flight spec is
// killed abruptly; the hedge/failover path completes the batch from a
// replica with the correct bytes, the router marks the dead shard down,
// and a restarted shard re-admits through probation.
func TestClusterChurnHedgeCompletesAndReadmits(t *testing.T) {
	slowRunner := func(s experiments.Spec, attempt int) (core.Result, error) {
		time.Sleep(150 * time.Millisecond)
		return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
	}
	lc, err := NewLocal(3, simserve.Config{Runner: slowRunner}, RouterConfig{
		HedgeAfter:    40 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
		ReadmitOKs:    2,
		DecayInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 7}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	home := NewRing(shardAddrs(lc), 0).Order(id)[0]
	var homeShard *LocalShard
	for _, sh := range lc.Shards {
		if sh.Addr == home {
			homeShard = sh
		}
	}
	if homeShard == nil {
		t.Fatalf("home shard %s not in cluster", home)
	}

	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, _, body := postJobs(t, lc.RouterAddr, "", []experiments.Spec{spec}, true)
		done <- reply{code, body}
	}()

	// Kill the home shard while its run is still in flight.
	time.Sleep(60 * time.Millisecond)
	homeShard.Stop()

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("batch did not complete after shard death: HTTP %d: %s", r.code, r.body)
	}
	results := decodeResults(t, r.body)
	var jr jobapi.JobResult
	if err := json.Unmarshal(results[0], &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID != id || jr.Error != "" {
		t.Fatalf("hedged result wrong: id=%s error=%q", jr.ID, jr.Error)
	}
	if want := int64(7 * vclock.Microsecond); jr.SimTimePS != want {
		t.Fatalf("hedged result sim time = %d, want %d", jr.SimTimePS, want)
	}

	// The dead shard is marked down (by traffic and/or probes)...
	deadline := time.Now().Add(3 * time.Second)
	for {
		if !lc.Router.mem.Live(home) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead shard %s never marked down (state %s)", home, lc.Router.mem.State(home))
		}
		time.Sleep(10 * time.Millisecond)
	}
	marksDown := lc.Router.mem.marksDown.Load()
	if marksDown < 1 {
		t.Fatalf("marksDown = %d, want >= 1", marksDown)
	}

	// ...the determinism probe saw no divergence...
	mismatches := lc.Router.m.probeMismatches.Load()
	if mismatches != 0 {
		t.Fatalf("probeMismatches = %d, want 0", mismatches)
	}

	// ...and a restarted shard re-admits through probation.
	if err := homeShard.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		if lc.Router.mem.Live(home) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard %s never re-admitted (state %s)", home, lc.Router.mem.State(home))
		}
		time.Sleep(10 * time.Millisecond)
	}
	readmits := lc.Router.mem.readmits.Load()
	if readmits < 1 {
		t.Fatalf("readmits = %d, want >= 1", readmits)
	}
}

// Per-tenant admission: one tenant exhausting its bucket is refused
// with a Retry-After while another tenant's bucket is untouched.
func TestTenantAdmissionIsolatesTenants(t *testing.T) {
	lc, err := NewLocal(1, simserve.Config{}, RouterConfig{
		DecayInterval: time.Hour,
		Admission:     AdmissionConfig{RatePerSec: 1, BurstSec: 1}, // depth 1
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	spec := []experiments.Spec{{Bench: "npb-ep.8", Seed: 11}}
	code, _, body := postJobs(t, lc.RouterAddr, "team-a", spec, false)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", code, body)
	}
	code, hdr, body := postJobs(t, lc.RouterAddr, "team-a", spec, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d: %s", code, body)
	}
	if retry, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	// A different tenant has its own bucket.
	code, _, body = postJobs(t, lc.RouterAddr, "team-b", spec, false)
	if code != http.StatusAccepted {
		t.Fatalf("other tenant: HTTP %d: %s", code, body)
	}
}

// The hot tracker decays on its own ticker and the router replicates
// nothing to the shards: with a 10 ms DecayInterval, an address
// submitted twice is decayed away over several ticks, while the shard —
// which answers a poll with the finished result — sees no POST but the
// two forwarded submits.
func TestHotTrackerDecaysWithoutPush(t *testing.T) {
	id, result := mkResult(t, 1)
	var mu sync.Mutex
	var seen []string
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		seen = append(seen, req.Method+" "+req.URL.Path)
		mu.Unlock()
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/jobs":
			jobapi.WriteJSON(w, http.StatusAccepted, jobapi.Accepted{Jobs: []jobapi.JobStatus{{ID: id, Status: jobapi.StatusQueued}}})
		case req.Method == http.MethodGet && req.URL.Path == "/jobs/"+id:
			jobapi.WriteJSON(w, http.StatusOK, jobapi.JobPoll{ID: id, Status: jobapi.StatusDone, Result: result})
		default:
			http.NotFound(w, req)
		}
	}))
	defer shard.Close()

	r, err := NewRouter(RouterConfig{
		Shards:        []string{strings.TrimPrefix(shard.URL, "http://")},
		DecayInterval: 10 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs",
			strings.NewReader(`{"specs":[{"bench":"npb-ep.8","seed":1}]}`)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}

	// 2 → 1 → 0.5 → dropped: the count is gone after three ticks.
	tracked := func() bool {
		r.hot.mu.Lock()
		defer r.hot.mu.Unlock()
		_, ok := r.hot.counts[id]
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); tracked(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the hot tracker never decayed the address")
		}
	}
	if got := r.hot.Note(id); got != 1 {
		t.Fatalf("count after decay and one more sighting = %v, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	posts := 0
	for _, req := range seen {
		if strings.HasPrefix(req, "POST ") {
			if req != "POST /jobs" {
				t.Errorf("shard saw %q; the router may only forward submits", req)
			}
			posts++
		}
	}
	if posts != 2 {
		t.Fatalf("shard saw %d POSTs, want the 2 submits (requests: %q)", posts, seen)
	}
}

// A router over a fully dead shard set refuses cleanly.
func TestRouterNoLiveShards(t *testing.T) {
	lc, err := NewLocal(1, simserve.Config{}, RouterConfig{
		ProbeInterval: time.Hour, // no background probes; driven by traffic
		FailThreshold: 1,
		DecayInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	lc.Shards[0].Stop()

	spec := []experiments.Spec{{Bench: "npb-ep.8", Seed: 31}}
	// First submit discovers the dead shard (transport error -> mark
	// down at threshold 1); it may fail with 502 or 503 depending on
	// when the mark lands. The second must be a clean 503.
	postJobs(t, lc.RouterAddr, "", spec, false)
	code, _, body := postJobs(t, lc.RouterAddr, "", spec, false)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster: HTTP %d: %s", code, body)
	}
	if !strings.Contains(string(body), "no live shards") {
		t.Fatalf("dead cluster error = %s, want no-live-shards", body)
	}
}

// A shard listed twice would sit on the ring as two members: Ring.Order
// would offer it as its own replica, the load ceiling would count it as
// two candidates and /metrics would print its series twice. NewRouter
// refuses the list and names the shard.
func TestNewRouterRejectsDuplicateShard(t *testing.T) {
	for _, shards := range [][]string{{"a:1", "a:1"}, {"a:1", "b:2", "a:1"}} {
		r, err := NewRouter(RouterConfig{Shards: shards})
		if err == nil {
			r.Close()
			t.Fatalf("NewRouter(%q) accepted a duplicate shard", shards)
		}
		if !strings.Contains(err.Error(), `"a:1"`) {
			t.Errorf("NewRouter(%q) error %q does not name the duplicate", shards, err)
		}
	}
	r, err := NewRouter(RouterConfig{Shards: []string{"a:1", "b:2"}})
	if err != nil {
		t.Fatalf("distinct shards refused: %v", err)
	}
	r.Close()
}

// The router's metrics page renders the core counters (smoke, and a
// regression guard for the sorted render helpers).
func TestRouterMetricsRender(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	postJobs(t, lc.RouterAddr, "", []experiments.Spec{{Bench: "npb-ep.8", Seed: 41}}, true)

	resp, err := http.Get("http://" + lc.RouterAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"simrouter_requests_total 1",
		"simrouter_specs_total 1",
		"simrouter_probe_mismatches 0",
		fmt.Sprintf("simrouter_shard_up{shard=%q} 1", lc.Shards[0].Addr),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestRouterMetricsPageGolden pins the /metrics surface of a fresh
// one-shard router (plus one admitted tenant) against the page the
// hand-written renderer produced before the registry replaced it
// (testdata/metrics_fresh.golden, generated at that commit, lines
// sorted): a dropped, renamed or relabelled metric fails here.
func TestRouterMetricsPageGolden(t *testing.T) {
	r, err := NewRouter(RouterConfig{
		Shards:    []string{"shard-a:1"},
		Admission: AdmissionConfig{RatePerSec: 1, BurstSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.adm.Allow("team-a", 1)

	lines := strings.Split(strings.TrimSuffix(string(r.m.reg.Bytes()), "\n"), "\n")
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/metrics_fresh.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fresh /metrics page (sorted) differs from the golden:\n%s\nwant:\n%s", got, want)
	}
}

// A shard that refuses (429) or fails (500) a forward answered on a
// healthy keep-alive connection; the router must read the answer to EOF
// so net/http returns that connection to the pool. Closing it unread
// costs one fresh TCP dial per refusal — exactly when the cluster is
// overloaded.
func TestRefusedForwardsReuseConnection(t *testing.T) {
	var newConns, submitStatus atomic.Int64
	submitStatus.Store(http.StatusTooManyRequests)
	shard := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		jobapi.WriteError(w, int(submitStatus.Load()), "spec 0: job queue full (accepted 0 of 1 specs; resubmit the rest)")
	}))
	shard.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	shard.Start()
	defer shard.Close()
	addr := strings.TrimPrefix(shard.URL, "http://")

	r, err := NewRouter(RouterConfig{Shards: []string{addr}, FailThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := experiments.Spec{Bench: "npb-ep.8"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	group := []specItem{{spec: n, id: "hot"}}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if out := r.sendGroup(context.Background(), addr, group, true); !out.refused {
			t.Fatalf("round %d: outcome %+v, want a refusal", i, out)
		}
	}
	submitStatus.Store(http.StatusInternalServerError)
	for i := 0; i < rounds; i++ {
		if out := r.sendGroup(context.Background(), addr, group, true); out.err == nil || out.refused {
			t.Fatalf("round %d: outcome %+v, want a hard failure", i, out)
		}
	}
	if got := newConns.Load(); got != 1 {
		t.Fatalf("%d refused forwards opened %d connections, want 1 (keep-alive reuse)", 2*rounds, got)
	}
}
