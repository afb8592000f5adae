package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/jobapi"
	"nexsim/internal/vclock"
)

// A wait=true client that disconnects while its job is still queued
// must free the queue slot: the worker skips the job at pickup instead
// of computing an answer nobody will read.
func TestClientDisconnectCancelsQueuedJob(t *testing.T) {
	block := make(chan struct{})
	var ran int64
	srv, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 8,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			atomic.AddInt64(&ran, 1)
			<-block
			return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
		},
	})

	// Occupy the single worker with a kept (async) job.
	code, _ := post(t, ts, `{"specs":[{"bench":"npb-ep.8","seed":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("warmup submit: HTTP %d", code)
	}
	for atomic.LoadInt64(&ran) == 0 {
		time.Sleep(time.Millisecond)
	}

	// A second spec waits in the queue behind it, with a cancellable
	// client.
	abandoned := experiments.Spec{Bench: "npb-ep.8", Seed: 2}
	id, err := abandoned.ID()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Specs []experiments.Spec `json:"specs"`
		Wait  bool               `json:"wait"`
	}{[]experiments.Spec{abandoned}, true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, derr := http.DefaultClient.Do(req)
		errCh <- derr
	}()

	// Wait until the job is queued, then hang up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _, ok := srv.lookup(id); ok && st == jobapi.StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never appeared in the queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if derr := <-errCh; derr == nil {
		t.Fatal("expected the canceled request to error")
	}
	// The handler's deferred release must run before the worker frees up,
	// so give it a moment to drop the waiter.
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		j, ok := srv.jobs[id]
		return ok && j.waiters == 0 && !j.keep
	}, "waiter never released after disconnect")

	// Free the worker; the abandoned job must be skipped, not run.
	close(block)
	waitFor(t, 2*time.Second, func() bool {
		return srv.m.jobsCanceled.Load() == 1
	}, "abandoned job was never canceled at pickup")

	if got := atomic.LoadInt64(&ran); got != 1 {
		t.Fatalf("runner ran %d times, want 1 (abandoned job must not execute)", got)
	}
	if _, _, ok := srv.lookup(id); ok {
		t.Fatal("canceled job still resolvable; it should have been dropped")
	}
	_, page := get(t, ts, "/metrics")
	if v := metricValue(t, page, "simserve_jobs_canceled"); v != 1 {
		t.Fatalf("simserve_jobs_canceled = %d, want 1", v)
	}
}

// An async (no-wait) submit is pinned to completion even though its
// client never waits: keep jobs must survive worker pickup.
func TestAsyncSubmitRunsWithoutWaiters(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			return core.Result{SimTime: vclock.Microsecond}, nil
		},
	})
	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 3}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	code, _ := post(t, ts, `{"specs":[{"bench":"npb-ep.8","seed":3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitFor(t, 2*time.Second, func() bool {
		st, _, ok := srv.lookup(id)
		return ok && st == jobapi.StatusDone
	}, "async job never completed")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// The 429 Retry-After is jittered per spec (1-3s) but deterministic:
// the same refused spec always quotes the same wait.
func TestRetryAfterJitterDeterministic(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 1,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			<-block
			return core.Result{}, nil
		},
	})
	// Fill the worker and the queue.
	for seed := 1; seed <= 2; seed++ {
		code, _ := post(t, ts, fmt.Sprintf(`{"specs":[{"bench":"npb-ep.8","seed":%d}]}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("fill submit %d: HTTP %d", seed, code)
		}
	}

	retryAfterSecs := func(spec experiments.Spec) int {
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		return jobapi.RetryAfterSecs(id)
	}
	refused := experiments.Spec{Bench: "npb-ep.8", Seed: 99}
	want := retryAfterSecs(refused)
	if want < 1 || want > 3 {
		t.Fatalf("retryAfterSecs = %d, want within [1,3]", want)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			bytes.NewReader([]byte(`{"specs":[{"bench":"npb-ep.8","seed":99}]}`)))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("refusal %d: HTTP %d", i, resp.StatusCode)
		}
		got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || got != want {
			t.Fatalf("refusal %d: Retry-After %q, want %d", i, resp.Header.Get("Retry-After"), want)
		}
	}
	// Distinct specs spread: at least two different values across a
	// handful of addresses (fnv over the content address).
	seen := map[int]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		seen[retryAfterSecs(experiments.Spec{Bench: "npb-ep.8", Seed: seed})] = true
	}
	if len(seen) < 2 {
		t.Fatalf("retry jitter is constant across specs: %v", seen)
	}
}

// FuzzPromote: a shard takes results from nobody but its own runs.
// Whatever bytes a peer POSTs to the former hot-set route — raw, or
// wrapped as a push entry under any address and failed flag — the shard
// refuses them (404/405), its cache stays empty, and it still serves.
func FuzzPromote(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string, failed bool, result []byte) {
		srv := New(Config{Workers: 1, Backlog: 1, CacheEntries: 4})
		defer srv.Close()
		h := srv.Handler()
		push := fmt.Sprintf(`{"entries":[{"id":%q,"failed":%t,"result":%s}]}`, id, failed, result)
		for _, body := range [][]byte{result, []byte(push)} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/hotset", bytes.NewReader(body)))
			if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("POST /cluster/hotset: status %d (want 404 or 405), resp %s", rec.Code, rec.Body)
			}
		}
		srv.mu.Lock()
		entries := srv.cache.Len()
		srv.mu.Unlock()
		if _, _, ok := srv.lookup(id); ok || entries != 0 {
			t.Fatalf("after the refusals the cache holds %d entries (pushed id known: %v), want none", entries, ok)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /healthz after the refusals: status %d", rec.Code)
		}
	})
}

// WAL replay racing fresh submits: a state dir with pending jobs is
// reopened while clients concurrently submit the same and new specs.
// Every spec resolves exactly once per content address, results are
// correct, and a third incarnation recovers the full result set.
func TestWALReplayWithConcurrentSubmits(t *testing.T) {
	dir := t.TempDir()
	stuck := make(chan struct{})
	t.Cleanup(func() { close(stuck) })
	var ran int64
	srv1 := New(Config{Workers: 1, Backlog: 16, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			<-stuck // wedged until test cleanup — the "crashed" runs
			return core.Result{}, nil
		}})
	// Journal 4 pending specs, then "crash" (no Close). The wedge keeps
	// srv1 from ever writing done records into the journal srv2 is about
	// to compact.
	for seed := uint64(1); seed <= 4; seed++ {
		if _, err := srv1.submit(experiments.Spec{Bench: "npb-ep.8", Seed: seed}, false); err != nil {
			t.Fatal(err)
		}
	}

	// Second incarnation: recovery replays the WAL (compacting it) while
	// concurrent clients re-submit overlapping and fresh specs.
	srv2 := New(Config{Workers: 2, Backlog: 32, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			atomic.AddInt64(&ran, 1)
			time.Sleep(time.Millisecond) // hold jobs in flight so submits dedup
			return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
		}})
	var wg sync.WaitGroup
	jobs := make([]*job, 0, 32)
	var jobsMu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := uint64(1); seed <= 8; seed++ { // seeds 1-4 overlap recovery
				j, err := srv2.submit(experiments.Spec{Bench: "npb-ep.8", Seed: seed}, false)
				if err != nil {
					t.Error(err)
					return
				}
				jobsMu.Lock()
				jobs = append(jobs, j)
				jobsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, j := range jobs {
		<-j.done
	}
	srv2.Close()

	// Each of the 8 distinct addresses ran at most once per incarnation
	// window; the dedup/cache layers absorbed the other 31+ submissions.
	if got := atomic.LoadInt64(&ran); got != 8 {
		t.Fatalf("runner executed %d times, want 8 (one per distinct spec)", got)
	}

	// Third incarnation recovers every result from the journal.
	srv3 := New(Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			t.Error("recovered cache should answer without running")
			return core.Result{}, nil
		}})
	defer srv3.Close()
	for seed := uint64(1); seed <= 8; seed++ {
		spec := experiments.Spec{Bench: "npb-ep.8", Seed: seed}
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		st, result, ok := srv3.lookup(id)
		if !ok || st != jobapi.StatusDone {
			t.Fatalf("seed %d: not recovered (ok=%v status=%s)", seed, ok, st)
		}
		var jr jobapi.JobResult
		if err := json.Unmarshal(result, &jr); err != nil {
			t.Fatal(err)
		}
		if want := int64(vclock.Duration(seed) * vclock.Microsecond); jr.SimTimePS != want {
			t.Fatalf("seed %d: recovered sim time %d, want %d", seed, jr.SimTimePS, want)
		}
	}
}
