package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// Promote only accepts results that verify against their content
// address — the hot-set protocol's poisoning defense.
func TestPromoteVerifiesContentAddress(t *testing.T) {
	runner := func(s experiments.Spec, attempt int) (core.Result, error) {
		return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
	}
	src, ts := newTestServer(t, Config{Workers: 1, Backlog: 4, Runner: runner})
	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 5}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	code, _ := post(t, ts, `{"specs":[{"bench":"npb-ep.8","seed":5}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("source run: HTTP %d", code)
	}
	_, result, ok := src.lookup(id)
	if !ok || len(result) == 0 {
		t.Fatal("source result missing")
	}

	dst := New(Config{Workers: 1, Backlog: 4, Runner: runner})
	defer dst.Close()

	// Valid push: verified, cached, then served byte-identically.
	if err := dst.Promote(id, false, result); err != nil {
		t.Fatalf("valid promote rejected: %v", err)
	}
	if st, got, ok := dst.lookup(id); !ok || st != jobapi.StatusDone || !bytes.Equal(got, result) {
		t.Fatalf("promoted result not served: ok=%v status=%s identical=%v", ok, st, bytes.Equal(got, result))
	}
	// Re-push of a cached entry is a duplicate, not an error.
	if err := dst.Promote(id, false, result); err != nil {
		t.Fatalf("duplicate promote errored: %v", err)
	}

	// Wrong address: rejected.
	if err := dst.Promote("deadbeef", false, result); err == nil {
		t.Fatal("promote accepted a result under the wrong content address")
	}
	// Tampered bytes: the claimed id no longer matches the embedded spec.
	var jr jobapi.JobResult
	if err := json.Unmarshal(result, &jr); err != nil {
		t.Fatal(err)
	}
	jr.Spec.Seed = 6
	tampered, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Promote(id, false, tampered); err == nil {
		t.Fatal("promote accepted tampered result bytes")
	}
	// Transient failures are never cacheable.
	jr.Spec.Seed = 5
	jr.Error = "injected"
	jr.ErrorKind = jobapi.ErrorKindTransient
	transient, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Promote(id, true, transient); err == nil {
		t.Fatal("promote accepted a transient failure")
	}
	// Failed flag must agree with the result.
	if err := dst.Promote(id, true, result); err == nil {
		t.Fatal("promote accepted a failed flag contradicting the result")
	}

	promoted, dups, rejected := dst.m.hotsetPromoted.Load(), dst.m.hotsetDuplicates.Load(), dst.m.hotsetRejected.Load()
	if promoted != 1 || dups != 1 || rejected != 4 {
		t.Fatalf("hotset counters = %d/%d/%d, want 1 promoted, 1 duplicate, 4 rejected", promoted, dups, rejected)
	}
}

// FuzzPromote: a hot-set push is bytes from a peer. Whatever they are,
// Promote answers with an error or a verified promotion — never a panic
// — and what it accepts is exactly what the content address vouches
// for: the result served afterwards is byte-identical to the push.
func FuzzPromote(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string, failed bool, result []byte) {
		srv := New(Config{Workers: 1, Backlog: 1, CacheEntries: 4})
		defer srv.Close()
		if err := srv.Promote(id, failed, result); err != nil {
			return
		}
		var jr jobapi.JobResult
		if err := json.Unmarshal(result, &jr); err != nil {
			t.Fatalf("accepted undecodable bytes: %v", err)
		}
		if specID, err := jr.Spec.ID(); err != nil || specID != id {
			t.Fatalf("accepted %q under address %q (%v)", specID, id, err)
		}
		if jr.ErrorKind == jobapi.ErrorKindTransient || failed != (jr.Error != "") {
			t.Fatalf("accepted failed=%v for result %s", failed, result)
		}
		st, got, ok := srv.lookup(id)
		if !ok || !bytes.Equal(got, result) || (st == jobapi.StatusFailed) != failed {
			t.Fatalf("promoted entry served as ok=%v status=%q identical=%v", ok, st, bytes.Equal(got, result))
		}
	})
}

// The POST /cluster/hotset endpoint promotes good entries and rejects
// bad ones individually.
func TestHotsetEndpoint(t *testing.T) {
	runner := func(s experiments.Spec, attempt int) (core.Result, error) {
		return core.Result{SimTime: vclock.Duration(s.Seed) * vclock.Microsecond}, nil
	}
	src, srcTS := newTestServer(t, Config{Workers: 1, Backlog: 4, Runner: runner})
	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 8}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, srcTS, `{"specs":[{"bench":"npb-ep.8","seed":8}],"wait":true}`); code != http.StatusOK {
		t.Fatalf("source run: HTTP %d", code)
	}
	_, result, _ := src.lookup(id)

	_, dstTS := newTestServer(t, Config{Workers: 1, Backlog: 4, Runner: runner})
	push, err := json.Marshal(struct {
		Entries []jobapi.HotEntry `json:"entries"`
	}{[]jobapi.HotEntry{
		{ID: id, Failed: false, Result: result},
		{ID: "bogus", Failed: false, Result: result},
	}})
	if err != nil {
		t.Fatal(err)
	}
	code, body := post2(t, dstTS.URL+"/cluster/hotset", push)
	if code != http.StatusOK {
		t.Fatalf("hotset push: HTTP %d: %s", code, body)
	}
	var summary struct{ Promoted, Rejected int }
	if err := json.Unmarshal(body, &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Promoted != 1 || summary.Rejected != 1 {
		t.Fatalf("push summary = %+v, want 1 promoted 1 rejected", summary)
	}
	// The receiving shard now serves the result from cache.
	code, got := post(t, dstTS, `{"specs":[{"bench":"npb-ep.8","seed":8}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("warm serve: HTTP %d", code)
	}
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(got, &env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Results[0], result) {
		t.Fatal("promoted result served with different bytes")
	}
}

// post2 POSTs raw bytes to a full URL.
func post2(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
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
