package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/jobapi"
	"nexsim/internal/simserve"
	"nexsim/internal/vclock"
)

// goldenSpecs is the serving benchmark's spec set (bench/serve.go): six
// real engine runs, 0.3–6 ms each.
func goldenSpecs() []experiments.Spec {
	benches := []string{"protoacc-bench3", "jpeg-mt.4", "npb-ep.8", "vta-matmul", "vta-resnet18", "protoacc-bench0"}
	specs := make([]experiments.Spec, len(benches))
	for i, b := range benches {
		specs[i] = experiments.Spec{Bench: b, Host: "nex", Accel: "dsim", Seed: uint64(100 + i)}
	}
	return specs
}

// seedRunner answers every spec instantly with a sim time derived from
// its seed: distinct, deterministic results without engine time.
func seedRunner(s experiments.Spec, _ int) (core.Result, error) {
	return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
}

func seedSpecs(seeds ...uint64) []experiments.Spec {
	specs := make([]experiments.Spec, len(seeds))
	for i, s := range seeds {
		specs[i] = experiments.Spec{Bench: "npb-ep.8", Seed: s}
	}
	return specs
}

func specID(t testing.TB, s experiments.Spec) string {
	t.Helper()
	id, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// mkResult builds the canonical result bytes a shard would answer for a
// seedRunner run of seed, and their content address.
func mkResult(t testing.TB, seed uint64) (string, []byte) {
	t.Helper()
	n, err := seedSpecs(seed)[0].Normalized()
	if err != nil {
		t.Fatal(err)
	}
	id := specID(t, n)
	simTime := vclock.Duration(seed) * vclock.Microsecond
	data, err := json.Marshal(jobapi.JobResult{ID: id, Spec: n, SimTimePS: int64(simTime), SimTime: simTime.String()})
	if err != nil {
		t.Fatal(err)
	}
	return id, data
}

// routed submits specs with wait=true through lc's router and returns
// the per-spec result bytes of the 200 answer.
func routed(t *testing.T, lc *LocalCluster, specs []experiments.Spec) []json.RawMessage {
	t.Helper()
	code, _, body := postJobs(t, lc.RouterAddr, "", specs, true)
	if code != http.StatusOK {
		t.Fatalf("routed submit: HTTP %d: %s", code, body)
	}
	got := decodeResults(t, body)
	if len(got) != len(specs) {
		t.Fatalf("routed submit answered %d results for %d specs", len(got), len(specs))
	}
	return got
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// shardCounters sums the named plain counters over lc's shards.
type shardCounters struct{ submitted, hits, misses int64 }

func shardsNow(t *testing.T, lc *LocalCluster) shardCounters {
	t.Helper()
	addrs := shardAddrs(lc)
	return shardCounters{
		submitted: scrapeCounter(t, "simserve_jobs_submitted", addrs...),
		hits:      scrapeCounter(t, "simserve_cache_hits", addrs...),
		misses:    scrapeCounter(t, "simserve_cache_misses", addrs...),
	}
}

func (a shardCounters) minus(b shardCounters) shardCounters {
	return shardCounters{a.submitted - b.submitted, a.hits - b.hits, a.misses - b.misses}
}

func (r *Router) edgeEntries() int {
	r.edge.mu.Lock()
	defer r.edge.mu.Unlock()
	return r.edge.lru.Len()
}

// Every routed answer is byte-identical to the direct-shard answer for
// the same content address — cold, warm, after a flush, by submit and by
// poll — and once admitted the repeat sweeps never reach a shard (the
// shard counters say so).
func TestEdgeRoutedDirectCachedBytesIdentical(t *testing.T) {
	specs := goldenSpecs()
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
	n := int64(len(specs))
	sweep := func(pass string, wantDelta shardCounters, wantEdgeHits int64) {
		t.Helper()
		before := shardsNow(t, lc)
		edgeBefore := scrapeCounter(t, "simrouter_edge_hits", lc.RouterAddr)
		got := routed(t, lc, specs)
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("%s, spec %d: routed bytes differ from direct\n direct: %s\n routed: %s", pass, i, want[i], got[i])
			}
		}
		if d := shardsNow(t, lc).minus(before); d != wantDelta {
			t.Fatalf("%s: shard counters moved by %+v, want %+v", pass, d, wantDelta)
		}
		if d := scrapeCounter(t, "simrouter_edge_hits", lc.RouterAddr) - edgeBefore; d != wantEdgeHits {
			t.Fatalf("%s: edge hits moved by %d, want %d", pass, d, wantEdgeHits)
		}
	}

	// First sighting runs the engines; the second is forwarded too (and is
	// what admits the results); from the third on the router answers alone.
	sweep("cold", shardCounters{submitted: n, misses: n}, 0)
	sweep("second sighting", shardCounters{hits: n}, 0)
	sweep("cached", shardCounters{}, n)
	// One spec at a time, and by poll.
	for i, spec := range specs {
		if got := routed(t, lc, []experiments.Spec{spec})[0]; !bytes.Equal(got, want[i]) {
			t.Fatalf("single submit of spec %d differs from direct", i)
		}
		id := specID(t, spec)
		_, viaRouter := getBody(t, "http://"+lc.RouterAddr+"/jobs/"+id)
		_, viaShard := getBody(t, "http://"+NewRing(shardAddrs(lc), 0).Order(id)[0]+"/jobs/"+id)
		if !bytes.Equal(viaRouter, viaShard) {
			t.Fatalf("poll of spec %d: router answered\n%s\nhome shard answered\n%s", i, viaRouter, viaShard)
		}
	}
	// A flush costs one forwarded pass, never a different byte.
	lc.Router.edge.flush()
	sweep("after flush", shardCounters{hits: n}, 0)
	sweep("re-admitted", shardCounters{}, n)
}

// A partly cached sweep returns results in spec order and forwards
// exactly the uncached items.
func TestEdgePartlyCachedSweepForwardsOnlyUncached(t *testing.T) {
	lc, err := NewLocal(3, simserve.Config{Runner: seedRunner}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	cached := seedSpecs(2, 4)
	routed(t, lc, cached)
	routed(t, lc, cached)
	if n := lc.Router.edgeEntries(); n != 2 {
		t.Fatalf("edge entries after two sightings = %d, want 2", n)
	}

	before := shardsNow(t, lc)
	got := routed(t, lc, seedSpecs(1, 2, 3, 4, 5))
	for i, raw := range got {
		_, want := mkResult(t, uint64(i+1))
		if !bytes.Equal(raw, want) {
			t.Fatalf("result %d of the mixed sweep:\n got %s\nwant %s", i, raw, want)
		}
	}
	if d := shardsNow(t, lc).minus(before); d != (shardCounters{submitted: 3, misses: 3}) {
		t.Fatalf("mixed sweep moved the shard counters by %+v, want 3 fresh jobs and no cache hit", d)
	}
}

// One-off specs never enter the cache; the second sighting does, and the
// third is answered without a forward. The tracker's count is decayed,
// so two sightings a long time apart do not add up.
func TestEdgeAdmissionNeedsSecondSighting(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{Runner: seedRunner}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	forwards := func() int64 {
		var n int64
		for _, sh := range lc.Shards {
			n += lc.Router.m.forwards.With(sh.Addr).Load()
		}
		return n
	}
	spec := seedSpecs(9)
	routed(t, lc, spec)
	if n := lc.Router.edgeEntries(); n != 0 {
		t.Fatalf("a spec seen once was cached (%d entries)", n)
	}
	routed(t, lc, spec)
	if n := lc.Router.edgeEntries(); n != 1 {
		t.Fatalf("a spec seen twice was not cached (%d entries)", n)
	}
	before := forwards()
	routed(t, lc, spec)
	if d := forwards() - before; d != 0 {
		t.Fatalf("a cached spec was forwarded %d times", d)
	}
	// wait=false is never answered from the cache: the 202 contract
	// (ids to poll) is the shards'.
	code, _, body := postJobs(t, lc.RouterAddr, "", spec, false)
	if code != http.StatusAccepted || forwards()-before != 1 {
		t.Fatalf("async submit of a cached spec: HTTP %d (%s), %d forwards, want 202 and 1", code, body, forwards()-before)
	}

	h := newHotTracker()
	if c := h.Note("x"); c != 1 {
		t.Fatalf("first Note = %v, want 1", c)
	}
	h.Decay()
	if c := h.Note("x"); c >= edgeMinSeen {
		t.Fatalf("Note after a decay = %v, want below the admission count %d", c, edgeMinSeen)
	}
	if c := h.Note("x"); c < edgeMinSeen {
		t.Fatalf("third Note = %v, want at least %d", c, edgeMinSeen)
	}
}

// The byte budget holds, and what goes is the least recently used entry.
func TestEdgeByteBudgetEvictsLRU(t *testing.T) {
	idA, a := mkResult(t, 1)
	idB, b := mkResult(t, 2)
	idC, c := mkResult(t, 3)
	budget := int64(len(a) + len(b) + len(c)/2)
	e := newEdgeCache(budget)
	e.admit(idA, 2, false, a, 0)
	e.admit(idB, 2, false, b, 0)
	if _, ok := e.get(idA); !ok { // touch a: b is now the coldest
		t.Fatal("a not cached")
	}
	e.admit(idC, 2, false, c, 0)
	if _, ok := e.get(idB); ok {
		t.Fatal("b survived although it was least recently used")
	}
	for _, id := range []string{idA, idC} {
		if _, ok := e.get(id); !ok {
			t.Fatalf("%.8s evicted although the budget held without it", id)
		}
	}
	if used, n, ev := e.lru.Used(), e.lru.Len(), e.lru.Evictions(); used > budget || used != int64(len(a)+len(c)) || n != 2 || ev != 1 {
		t.Fatalf("used=%d (budget %d) entries=%d evictions=%d, want %d/2/1", used, budget, n, ev, len(a)+len(c))
	}
	// An entry larger than the whole budget is not cached and evicts nothing.
	small := newEdgeCache(int64(len(a) - 1))
	small.admit(idA, 2, false, a, 0)
	if small.lru.Len() != 0 || small.lru.Used() != 0 {
		t.Fatal("an entry over the whole budget was cached")
	}
}

// A transient failure is an answer, not a fact: the router never caches
// it however hot it is, forwards every resubmit, and the answer stays
// pollable through the router.
func TestEdgeTransientNeverCachedStaysPollable(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{
		MaxRetries: -1,
		Runner: func(experiments.Spec, int) (core.Result, error) {
			return core.Result{}, fmt.Errorf("chaos: %w", faults.ErrInjected)
		},
	}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := seedSpecs(13)
	id := specID(t, spec[0])
	for i := 0; i < 3; i++ {
		var jr jobapi.JobResult
		if err := json.Unmarshal(routed(t, lc, spec)[0], &jr); err != nil {
			t.Fatal(err)
		}
		if jr.ErrorKind != jobapi.ErrorKindTransient {
			t.Fatalf("submit %d: result %+v, want a transient failure", i, jr)
		}
	}
	if n := scrapeCounter(t, "simserve_jobs_submitted", shardAddrs(lc)...); n != 3 {
		t.Fatalf("shards ran %d jobs for 3 submits of a transiently failing spec, want 3", n)
	}
	if n, rej := lc.Router.edgeEntries(), lc.Router.edge.rejected.Load(); n != 0 || rej != 2 {
		t.Fatalf("edge entries=%d rejected=%d, want 0 and 2 (the second and third sighting)", n, rej)
	}
	code, body := getBody(t, "http://"+lc.RouterAddr+"/jobs/"+id)
	var poll jobapi.JobPoll
	if err := json.Unmarshal(body, &poll); err != nil || code != http.StatusOK {
		t.Fatalf("poll through the router: HTTP %d, %s (%v)", code, body, err)
	}
	if poll.Status != jobapi.StatusFailed || !bytes.Contains(poll.Result, []byte(`"error_kind":"transient"`)) {
		t.Fatalf("polled answer = %s, want the failed transient result", body)
	}
}

// Forged results — right bytes under the wrong address, one flipped byte
// in the spec, a transient failure dressed as a fact, a failed flag that
// contradicts the result, garbage — are rejected and counted; a
// deterministic failure is a fact and is cached as one.
func TestEdgeRejectsForgedResults(t *testing.T) {
	id, good := mkResult(t, 5)
	otherID, _ := mkResult(t, 6)
	flipped := bytes.Replace(good, []byte(`"seed":5`), []byte(`"seed":7`), 1)
	if bytes.Equal(flipped, good) {
		t.Fatal("test setup: seed field not found in the result bytes")
	}
	transient := append(bytes.TrimSuffix(good, []byte("}")), []byte(`,"error":"chaos","error_kind":"transient"}`)...)
	failed := append(bytes.TrimSuffix(good, []byte("}")), []byte(`,"error":"boom","error_kind":"deterministic"}`)...)

	e := newEdgeCache(1 << 20)
	for _, forged := range []struct {
		name   string
		id     string
		failed bool
		result []byte
	}{
		{"wrong address", otherID, false, good},
		{"flipped byte", id, false, flipped},
		{"transient", id, true, transient},
		{"failed flag", id, true, good},
		{"garbage", id, false, []byte("\x00\xffNXCKPT")},
		{"empty", id, false, nil},
	} {
		before := e.rejected.Load()
		e.admit(forged.id, 2, forged.failed, forged.result, 0)
		if e.lru.Len() != 0 || e.rejected.Load() != before+1 {
			t.Fatalf("%s: entries=%d rejected=%d, want 0 entries and one more rejection", forged.name, e.lru.Len(), e.rejected.Load()-before)
		}
	}
	e.admit(id, 1, false, good, 0)
	if e.lru.Len() != 0 || e.rejected.Load() != 6 {
		t.Fatal("a result seen once was admitted or counted as rejected")
	}
	e.admit(id, 2, true, failed, 0)
	if got, ok := e.get(id); !ok || !got.Failed || got.Status() != jobapi.StatusFailed || !bytes.Equal(got.Result, failed) {
		t.Fatalf("deterministic failure not cached as a failure: %+v, %v", got, ok)
	}

	// End to end: a shard that answers every submit with another spec's
	// result is passed through (as it always was) but never cached.
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		jobapi.WriteJSON(w, http.StatusOK, jobapi.Results{Results: []json.RawMessage{good}})
	}))
	defer shard.Close()
	r, err := NewRouter(RouterConfig{Shards: []string{strings.TrimPrefix(shard.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	for i := 0; i < 3; i++ {
		code, _, body := postJobs(t, strings.TrimPrefix(front.URL, "http://"), "", seedSpecs(6), true)
		if code != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, code, body)
		}
	}
	if n, rej := r.edgeEntries(), r.edge.rejected.Load(); n != 0 || rej != 2 {
		t.Fatalf("lying shard: edge entries=%d rejected=%d, want 0 and 2", n, rej)
	}
}

// A determinism-probe mismatch empties the cache — the router cannot
// know which side was wrong — and the next request is forwarded.
func TestEdgeProbeMismatchFlushes(t *testing.T) {
	lc, err := NewLocal(3, simserve.Config{Runner: seedRunner}, RouterConfig{
		DecayInterval: time.Hour,
		ProbeInterval: time.Hour, // the quarantined shard stays out for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	specs := seedSpecs(1, 2, 3)
	routed(t, lc, specs)
	want := routed(t, lc, specs)
	if n := lc.Router.edgeEntries(); n != 3 {
		t.Fatalf("edge entries = %d, want 3", n)
	}

	id, good := mkResult(t, 1)
	bad := bytes.Replace(good, []byte(`"sim_time_ps":1000000`), []byte(`"sim_time_ps":1000001`), 1)
	loser := lc.Shards[2].Addr
	lc.Router.probeCompare(
		[]itemResult{{id: id, result: good, shard: lc.Shards[0].Addr}},
		[]itemResult{{id: id, result: bad, shard: loser}})
	if n, fl, mm := lc.Router.edgeEntries(), lc.Router.edge.flushes.Load(), lc.Router.m.probeMismatches.Load(); n != 0 || fl != 1 || mm != 1 {
		t.Fatalf("after a mismatch: entries=%d flushes=%d mismatches=%d, want 0/1/1", n, fl, mm)
	}
	if lc.Router.mem.Live(loser) {
		t.Fatal("losing shard not quarantined")
	}

	before := scrapeCounter(t, "simrouter_edge_hits", lc.RouterAddr)
	got := routed(t, lc, specs)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("spec %d answered differently after the flush", i)
		}
	}
	if d := scrapeCounter(t, "simrouter_edge_hits", lc.RouterAddr) - before; d != 0 {
		t.Fatalf("%d edge hits right after a flush, want 0 (everything forwarded)", d)
	}
	if n := lc.Router.edgeEntries(); n != 3 {
		t.Fatalf("edge entries after the forwarded pass = %d, want 3 (re-admitted)", n)
	}
}

// A flush that lands while a shard is answering keeps that answer out:
// it may come from the very shard the mismatch was about, and a cached
// copy is never forwarded — so never probed — again. The next sighting,
// forwarded in the new generation, is admitted as usual.
func TestEdgeFlushDuringForwardDropsAnswer(t *testing.T) {
	id, good := mkResult(t, 5)
	e := newEdgeCache(1 << 20)
	gen := e.generation()
	e.flush()
	e.admit(id, 2, false, good, gen)
	if e.lru.Len() != 0 || e.rejected.Load() != 0 {
		t.Fatalf("an answer forwarded before a flush was admitted after it (entries=%d rejected=%d)", e.lru.Len(), e.rejected.Load())
	}
	e.admit(id, 2, false, good, e.generation())
	if _, ok := e.get(id); !ok {
		t.Fatal("an answer forwarded after the flush was not admitted")
	}

	// End to end: the flush happens inside the shard's handler, i.e.
	// strictly between handleSubmit's forward and its admit.
	var flushing atomic.Pointer[edgeCache]
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if c := flushing.Load(); c != nil {
			c.flush()
		}
		jobapi.WriteJSON(w, http.StatusOK, jobapi.Results{Results: []json.RawMessage{good}})
	}))
	defer shard.Close()
	r, err := NewRouter(RouterConfig{Shards: []string{strings.TrimPrefix(shard.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	submit := func() {
		t.Helper()
		code, _, body := postJobs(t, strings.TrimPrefix(front.URL, "http://"), "", seedSpecs(5), true)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, body)
		}
	}
	submit()
	flushing.Store(r.edge)
	submit() // second sighting: admissible, but flushed mid-forward
	if n := r.edgeEntries(); n != 0 {
		t.Fatalf("edge entries = %d after a flush during the forward, want 0", n)
	}
	flushing.Store(nil)
	submit()
	if n, rej := r.edgeEntries(), r.edge.rejected.Load(); n != 1 || rej != 0 {
		t.Fatalf("edge entries=%d rejected=%d after the next forwarded sighting, want 1 and 0", n, rej)
	}
}

// 64 concurrent submitters of one hot id — racing the admission of its
// result — all read one body, and the cache holds it once.
func TestEdgeConcurrentSubmittersOneBody(t *testing.T) {
	lc, err := NewLocal(3, simserve.Config{Runner: seedRunner}, RouterConfig{DecayInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	reqBody, err := json.Marshal(jobapi.SubmitRequest{Specs: seedSpecs(64), Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 64
	bodies := make([][]byte, submitters)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+lc.RouterAddr+"/jobs", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			if body, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
				bodies[i] = body
			}
		}()
	}
	wg.Wait()
	_, want := mkResult(t, 64)
	for i, body := range bodies {
		if body == nil {
			t.Fatalf("submitter %d was not answered 200", i)
		}
		if got := decodeResults(t, body); len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("submitter %d read %s, want %s", i, body, want)
		}
	}
	if n := lc.Router.edgeEntries(); n != 1 {
		t.Fatalf("edge entries = %d, want 1", n)
	}
}

// An over-quota tenant is refused before any cache lookup, however hot
// and cached its spec is.
func TestEdgeAdmissionGateComesFirst(t *testing.T) {
	lc, err := NewLocal(1, simserve.Config{Runner: seedRunner}, RouterConfig{
		DecayInterval: time.Hour,
		Admission:     AdmissionConfig{RatePerSec: 0.001, BurstSec: 3000}, // depth 3, no refill to speak of
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := seedSpecs(3)
	for i := 0; i < 3; i++ {
		if code, _, body := postJobs(t, lc.RouterAddr, "team-a", spec, true); code != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, code, body)
		}
	}
	lookups, hits := lc.Router.edge.lookups.Load(), lc.Router.edge.hits.Load()
	if hits != 1 {
		t.Fatalf("edge hits = %d, want 1 (the third submit)", hits)
	}
	if code, _, body := postJobs(t, lc.RouterAddr, "team-a", spec, true); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit of a cached spec: HTTP %d: %s", code, body)
	}
	if lc.Router.edge.lookups.Load() != lookups || lc.Router.edge.hits.Load() != hits {
		t.Fatal("the refused request reached the edge cache")
	}
}

// With its home shard dead a cached id is still answered — by submit and
// by poll — byte-identically and without a failover; an uncached id fails
// over and is answered too.
func TestEdgeAnswersWithHomeShardDead(t *testing.T) {
	lc, err := NewLocal(3, simserve.Config{Runner: seedRunner}, RouterConfig{
		DecayInterval: time.Hour,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ring := NewRing(shardAddrs(lc), 0)
	hot := seedSpecs(1)
	hotID := specID(t, hot[0])
	home := ring.Order(hotID)[0]
	// An uncached spec with the same home shard.
	var cold []experiments.Spec
	for seed := uint64(2); cold == nil; seed++ {
		if s := seedSpecs(seed); ring.Order(specID(t, s[0]))[0] == home {
			cold = s
		}
	}
	routed(t, lc, hot)
	want := routed(t, lc, hot)[0]
	_, wantPoll := getBody(t, "http://"+lc.RouterAddr+"/jobs/"+hotID)
	for _, sh := range lc.Shards {
		if sh.Addr == home {
			sh.Stop()
		}
	}

	if got := routed(t, lc, hot)[0]; !bytes.Equal(got, want) {
		t.Fatal("cached id answered differently with its home shard dead")
	}
	if _, got := getBody(t, "http://"+lc.RouterAddr+"/jobs/"+hotID); !bytes.Equal(got, wantPoll) {
		t.Fatalf("poll of the cached id with its home shard dead: %s, want %s", got, wantPoll)
	}
	if n := lc.Router.m.failovers.Load(); n != 0 {
		t.Fatalf("failovers = %d after answering from the cache, want 0", n)
	}
	_, wantCold := mkResult(t, cold[0].Seed)
	if got := routed(t, lc, cold)[0]; !bytes.Equal(got, wantCold) {
		t.Fatalf("uncached id after failover: %s, want %s", got, wantCold)
	}
	if n := lc.Router.m.failovers.Load(); n != 1 {
		t.Fatalf("failovers = %d after the uncached submit, want 1", n)
	}
}

// Router.Close drops its pooled connections to the shards: N routers
// opened against live shards, forwarded through once and closed leave
// the goroutine count where it was (each leaked keep-alive connection
// would hold a read and a write goroutine here and a serving goroutine
// on the shard).
func TestRouterCloseReleasesConnections(t *testing.T) {
	lc, err := NewLocal(2, simserve.Config{Runner: seedRunner}, RouterConfig{DecayInterval: time.Hour, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	routed(t, lc, seedSpecs(1, 2, 3, 4))
	http.DefaultClient.CloseIdleConnections()
	// settle polls (bounded) until the goroutine count is down to limit.
	settle := func(limit int) int {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= limit || time.Now().After(deadline) {
				return n
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// What stays once the test client's connections have unwound (the
	// count has not moved for 50 ms): the listeners, worker pools, probe
	// and decay loops of lc.
	baseline, same := runtime.NumGoroutine(), 0
	for same < 10 {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == baseline {
			same++
		} else {
			baseline, same = n, 0
		}
	}

	items := make([]specItem, 4)
	for i, s := range seedSpecs(1, 2, 3, 4) {
		n, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		items[i] = specItem{idx: i, spec: n, id: specID(t, n)}
	}
	const routers = 8
	for i := 0; i < routers; i++ {
		r, err := NewRouter(RouterConfig{Shards: shardAddrs(lc), ProbeInterval: time.Hour, DecayInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		if _, err := r.routeItems(context.Background(), items, true, nil); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	if n := settle(baseline); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after %d routers opened, forwarded and closed; baseline %d\n%s",
			n, routers, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// FuzzEdgeAdmit: what a shard answers is bytes from a peer. Whatever id,
// flag, seen-count and bytes are offered, admission never panics, never
// holds more than its budget, and never keeps an entry the content
// address does not vouch for: everything the cache serves under a key
// decodes, embeds a spec that hashes to that key, is no transient
// failure, carries a consistent failed flag, and was seen twice.
func FuzzEdgeAdmit(f *testing.F) {
	goodID, good := mkResult(f, 1)
	f.Fuzz(func(t *testing.T, id string, failed bool, seen float64, result []byte) {
		budget := int64(len(good) + 64) // room for one result: a second valid one evicts the first
		e := newEdgeCache(budget)
		e.admit(goodID, 2, false, good, 0)
		e.admit(id, seen, failed, result, 0)
		if used := e.lru.Used(); used > budget || used < 0 {
			t.Fatalf("used %d bytes of a %d-byte budget", used, budget)
		}
		got, ok := e.get(id)
		if !ok || id == goodID && bytes.Equal(got.Result, good) {
			return
		}
		if !(seen >= edgeMinSeen) {
			t.Fatalf("admitted at seen-count %v", seen)
		}
		if !bytes.Equal(got.Result, result) || got.Failed != failed {
			t.Fatalf("cache serves failed=%v %s for an offer of failed=%v %s", got.Failed, got.Result, failed, result)
		}
		var jr jobapi.JobResult
		if err := json.Unmarshal(got.Result, &jr); err != nil {
			t.Fatalf("admitted undecodable bytes: %v", err)
		}
		if specID, err := jr.Spec.ID(); err != nil || specID != id {
			t.Fatalf("admitted %q under address %q (%v)", specID, id, err)
		}
		if jr.ErrorKind == jobapi.ErrorKindTransient || failed != (jr.Error != "") {
			t.Fatalf("admitted failed=%v for result %s", failed, result)
		}
	})
}

// BenchmarkRouterSubmit measures one wait=true submit of a hot spec at
// the router's handler (no client socket) over live loopback shards:
// answered from the edge cache, and forwarded to a shard-cache hit and
// offered for admission (the path of a second sighting; before the edge
// cache every hit paid the forward).
func BenchmarkRouterSubmit(b *testing.B) {
	for _, bc := range []struct {
		name string
		edge bool
	}{{"edge-hit", true}, {"forwarded-hit", false}} {
		b.Run(bc.name, func(b *testing.B) {
			var addrs []string
			for i := 0; i < 3; i++ {
				srv := simserve.New(simserve.Config{Runner: seedRunner})
				ts := httptest.NewServer(srv.Handler())
				defer func() { ts.Close(); srv.Close() }()
				addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
			}
			r, err := NewRouter(RouterConfig{Shards: addrs})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			if !bc.edge {
				r.edge = newEdgeCache(1) // no result fits: every submit is forwarded
			}
			h := r.Handler()
			body, err := json.Marshal(jobapi.SubmitRequest{Specs: seedSpecs(1), Wait: true})
			if err != nil {
				b.Fatal(err)
			}
			submit := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
				}
			}
			submit()
			submit() // second sighting: admitted, when it fits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			if hits := r.edge.hits.Load() == int64(b.N); hits != bc.edge {
				b.Fatalf("edge hits = %d over %d submits, edge case = %v", r.edge.hits.Load(), b.N, bc.edge)
			}
		})
	}
}
