package simserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/jobapi"
	"nexsim/internal/vclock"
)

// waitResults decodes a wait=true response envelope.
func waitResults(t *testing.T, body []byte) []jobapi.JobResult {
	t.Helper()
	var env struct {
		Results []jobapi.JobResult `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad wait envelope %s: %v", body, err)
	}
	return env.Results
}

// waitMetric polls /metrics until name reaches want (background
// publishes — hedge losers, drained primaries — land asynchronously).
func waitMetric(t *testing.T, ts *httptest.Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, page := get(t, ts, "/metrics")
		if metricValue(t, page, name) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d:\n%s", name, want, page)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTransientFailureRetriedNotCached pins the failure split: a
// transiently-failing run is retried, answered with error_kind
// "transient", and never cached — resubmitting it runs fresh.
func TestTransientFailureRetriedNotCached(t *testing.T) {
	var runs int64
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4, MaxRetries: 1, RetryBackoff: time.Millisecond,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			atomic.AddInt64(&runs, 1)
			return core.Result{}, fmt.Errorf("chaos: %w", faults.ErrInjected)
		},
	})
	body := `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`
	code, first := post(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, first)
	}
	jr := waitResults(t, first)[0]
	if jr.ErrorKind != jobapi.ErrorKindTransient || jr.Error == "" {
		t.Fatalf("transient failure misclassified: %+v", jr)
	}
	if jr.Attempt != 1 {
		t.Fatalf("final attempt = %d, want 1 (one retry)", jr.Attempt)
	}
	if n := atomic.LoadInt64(&runs); n != 2 {
		t.Fatalf("engine ran %d times, want 2 (attempt + retry)", n)
	}
	// Not cached: the same spec runs again on resubmit.
	if code, _ := post(t, ts, body); code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	if n := atomic.LoadInt64(&runs); n != 4 {
		t.Fatalf("engine ran %d times after resubmit, want 4 (transients are never cached)", n)
	}
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_retries_total"); n != 2 {
		t.Errorf("retries_total = %d, want 2", n)
	}
	if n := metricValue(t, page, "simserve_transient_failures"); n != 2 {
		t.Errorf("transient_failures = %d, want 2", n)
	}
	if n := metricValue(t, page, "simserve_cache_entries"); n != 0 {
		t.Errorf("cache_entries = %d, want 0", n)
	}
}

// TestTransientAnswerStaysPollable: a client that was told to poll (async
// submit → 202) must be able to collect a transient failure too. The
// answer is served on GET /jobs/{id} without entering the result cache,
// and a resubmit of the spec runs fresh and replaces it.
func TestTransientAnswerStaysPollable(t *testing.T) {
	var runs int64
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4, MaxRetries: -1,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			if atomic.AddInt64(&runs, 1) == 1 {
				return core.Result{}, fmt.Errorf("chaos: %w", faults.ErrInjected)
			}
			return core.Result{SimTime: 4 * vclock.Microsecond}, nil
		},
	})
	code, body := post(t, ts, `{"specs":[{"bench":"npb-ep.8"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", code, body)
	}
	var env jobapi.Accepted
	if err := json.Unmarshal(body, &env); err != nil || len(env.Jobs) != 1 {
		t.Fatalf("bad 202 envelope %s: %v", body, err)
	}
	waitMetric(t, ts, "simserve_transient_failures", 1)

	code, body = get(t, ts, "/jobs/"+env.Jobs[0].ID)
	if code != http.StatusOK {
		t.Fatalf("poll after a transient failure: status %d, body %s", code, body)
	}
	var poll jobapi.JobPoll
	if err := json.Unmarshal(body, &poll); err != nil {
		t.Fatal(err)
	}
	var jr jobapi.JobResult
	if err := json.Unmarshal(poll.Result, &jr); err != nil {
		t.Fatal(err)
	}
	if poll.Status != jobapi.StatusFailed || jr.ErrorKind != jobapi.ErrorKindTransient || jr.Error == "" {
		t.Fatalf("polled answer = status %q, result %+v; want a failed transient", poll.Status, jr)
	}
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_cache_entries"); n != 0 {
		t.Errorf("cache_entries = %d, want 0 (a pollable answer is not a cached result)", n)
	}

	// Resubmitting runs fresh (the stale answer is not a cache hit) and the
	// poll now serves the new, successful result.
	code, body = post(t, ts, `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, body %s", code, body)
	}
	if jr := waitResults(t, body)[0]; jr.Error != "" || atomic.LoadInt64(&runs) != 2 {
		t.Fatalf("resubmit did not run fresh: %+v after %d runs", jr, runs)
	}
	_, body = get(t, ts, "/jobs/"+env.Jobs[0].ID)
	if err := json.Unmarshal(body, &poll); err != nil || poll.Status != jobapi.StatusDone {
		t.Fatalf("poll after the healed resubmit: %s (%v)", body, err)
	}
}

// TestRetrySelfHeals: a fault that clears on the next attempt (the
// Attempts-window pattern) is healed by the retry chain — the client
// sees a success, and the healed result is cached like any other.
func TestRetrySelfHeals(t *testing.T) {
	var runs int64
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4, MaxRetries: 2, RetryBackoff: time.Millisecond,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			atomic.AddInt64(&runs, 1)
			if attempt == 0 {
				return core.Result{}, fmt.Errorf("flaky start: %w", faults.ErrInjected)
			}
			return core.Result{SimTime: 5 * vclock.Microsecond}, nil
		},
	})
	body := `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`
	code, first := post(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, first)
	}
	jr := waitResults(t, first)[0]
	if jr.Error != "" || vclock.Duration(jr.SimTimePS) != 5*vclock.Microsecond {
		t.Fatalf("healed run not successful: %+v", jr)
	}
	if n := atomic.LoadInt64(&runs); n != 2 {
		t.Fatalf("engine ran %d times, want 2", n)
	}
	// Healed results are cacheable: resubmit is a byte-identical hit.
	_, second := post(t, ts, body)
	if !bytes.Equal(first, second) {
		t.Fatal("cached healed result differs from fresh response")
	}
	if n := atomic.LoadInt64(&runs); n != 2 {
		t.Fatal("cache miss on resubmit of a healed run")
	}
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_retries_total"); n != 1 {
		t.Errorf("retries_total = %d, want 1", n)
	}
	if n := metricValue(t, page, "simserve_jobs_failed"); n != 0 {
		t.Errorf("jobs_failed = %d, want 0", n)
	}
}

// TestBudgetAbortTransient: budget aborts classify as transient (the
// wall budget depends on machine load) and count on /metrics.
func TestBudgetAbortTransient(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, Backlog: 4, MaxRetries: 1, RetryBackoff: time.Millisecond,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			return core.Result{}, fmt.Errorf("nex/dsim run aborted: %w", core.ErrBudgetExceeded)
		},
	})
	code, body := post(t, ts, `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if jr := waitResults(t, body)[0]; jr.ErrorKind != jobapi.ErrorKindTransient {
		t.Fatalf("budget abort misclassified: %+v", jr)
	}
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_budget_aborts"); n != 2 {
		t.Errorf("budget_aborts = %d, want 2 (attempt + retry)", n)
	}
}

// TestHedgeWinsStragglingPrimary: the hedge path end to end — a stuck
// primary is raced by a hedge, the hedge's result answers the client,
// and the late primary's identical bytes are counted wasted, not a
// mismatch.
func TestHedgeWinsStragglingPrimary(t *testing.T) {
	var calls int64
	primaryGate := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 2, Backlog: 4, HedgeAfter: 5 * time.Millisecond,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			if atomic.AddInt64(&calls, 1) == 1 {
				<-primaryGate // straggling primary
			}
			return core.Result{SimTime: 9 * vclock.Microsecond}, nil
		},
	})
	code, body := post(t, ts, `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	if jr := waitResults(t, body)[0]; vclock.Duration(jr.SimTimePS) != 9*vclock.Microsecond {
		t.Fatalf("hedged answer wrong: %+v", jr)
	}
	close(primaryGate) // primary finishes late, loses the publish race
	waitMetric(t, ts, "simserve_hedges_wasted", 1)
	_, page := get(t, ts, "/metrics")
	if n := metricValue(t, page, "simserve_hedges_launched"); n != 1 {
		t.Errorf("hedges_launched = %d, want 1", n)
	}
	if n := metricValue(t, page, "simserve_hedges_won"); n != 1 {
		t.Errorf("hedges_won = %d, want 1", n)
	}
	if n := metricValue(t, page, "simserve_hedge_mismatches"); n != 0 {
		t.Errorf("hedge_mismatches = %d, want 0 (identical results)", n)
	}
	if n := metricValue(t, page, "simserve_jobs_completed"); n != 1 {
		t.Errorf("jobs_completed = %d, want 1 (one job, two attempts)", n)
	}
}

// TestHedgeMismatchDetected: a runner that breaks determinism (the
// primary and its hedge return different results) is caught by the
// losing side's byte comparison and surfaced as a metric.
func TestHedgeMismatchDetected(t *testing.T) {
	var calls int64
	primaryGate := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 2, Backlog: 4, HedgeAfter: 5 * time.Millisecond,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			if atomic.AddInt64(&calls, 1) == 1 {
				<-primaryGate
				return core.Result{SimTime: 111 * vclock.Microsecond}, nil
			}
			return core.Result{SimTime: 222 * vclock.Microsecond}, nil
		},
	})
	code, body := post(t, ts, `{"specs":[{"bench":"npb-ep.8"}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	// The hedge published first; its result is the answer.
	if jr := waitResults(t, body)[0]; vclock.Duration(jr.SimTimePS) != 222*vclock.Microsecond {
		t.Fatalf("expected hedge's result, got %+v", jr)
	}
	close(primaryGate)
	waitMetric(t, ts, "simserve_hedge_mismatches", 1)
}

// TestWALRecoveryServesCache: results answered before a shutdown are
// served byte-identically by the next incarnation, without running the
// engine.
func TestWALRecoveryServesCache(t *testing.T) {
	dir := t.TempDir()
	body := `{"specs":[{"bench":"npb-ep.8","seed":7}],"wait":true}`

	srv1 := New(Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			return core.Result{SimTime: 42 * vclock.Microsecond}, nil
		}})
	ts1 := httptest.NewServer(srv1.Handler())
	code, first := post(t, ts1, body)
	ts1.Close()
	srv1.Close()
	if code != http.StatusOK {
		t.Fatalf("first incarnation: status %d, body %s", code, first)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			panic("recovered result must not re-run")
		}})
	code, second := post(t, ts2, body)
	if code != http.StatusOK {
		t.Fatalf("second incarnation: status %d, body %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("recovered response differs:\n%s\n%s", first, second)
	}
	_, page := get(t, ts2, "/metrics")
	if n := metricValue(t, page, "simserve_wal_recovered_results"); n != 1 {
		t.Errorf("wal_recovered_results = %d, want 1", n)
	}
	if n := metricValue(t, page, "simserve_jobs_submitted"); n != 0 {
		t.Errorf("jobs_submitted = %d, want 0 (served from recovered cache)", n)
	}
}

// TestWALPendingResubmittedAfterCrash: a job in flight when the process
// dies (simulated by abandoning the server without Close) is journaled
// as pending and re-executed by the next incarnation.
func TestWALPendingResubmittedAfterCrash(t *testing.T) {
	dir := t.TempDir()
	spec := experiments.Spec{Bench: "npb-ep.8", Seed: 9}
	stuck := make(chan struct{})
	t.Cleanup(func() { close(stuck) })
	srv1 := New(Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			<-stuck // wedged until test cleanup — the "crashed" run
			return core.Result{}, nil
		}})
	if _, err := srv1.submit(spec, false); err != nil {
		t.Fatal(err)
	}
	// No Close: srv1 is abandoned mid-run, like a kill -9.

	var ran int64
	srv2 := New(Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			atomic.AddInt64(&ran, 1)
			return core.Result{SimTime: 3 * vclock.Microsecond}, nil
		}})
	t.Cleanup(srv2.Close)

	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, _, ok := srv2.lookup(id); ok && status == jobapi.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered pending job never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := atomic.LoadInt64(&ran); n != 1 {
		t.Fatalf("recovered job ran %d times, want 1", n)
	}
	recovered := srv2.m.walRecoveredPending.Load()
	if recovered != 1 {
		t.Fatalf("wal_recovered_pending = %d, want 1", recovered)
	}
}

// TestWALTornTailAndBadRecordsDropped constructs a journal with one
// good done record, one whose result does not match its content address,
// one transient failure, and a torn tail — only the good record may be
// replayed, and Open must compact the journal back to a clean file.
func TestWALTornTailAndBadRecordsDropped(t *testing.T) {
	dir := t.TempDir()
	mkDone := func(seed uint64, kind string) (string, []byte) {
		t.Helper()
		n, err := experiments.Spec{Bench: "npb-ep.8", Seed: seed}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		id, err := n.ID()
		if err != nil {
			t.Fatal(err)
		}
		jr := jobapi.JobResult{ID: id, Spec: n, SimTimePS: 55000, SimTime: "55ns"}
		if kind != "" {
			jr = jobapi.JobResult{ID: id, Spec: n, Error: "chaos", ErrorKind: kind}
		}
		data, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		return id, data
	}

	goodID, goodData := mkDone(11, "")
	_, mismatchData := mkDone(12, "")
	transID, transData := mkDone(13, jobapi.ErrorKindTransient)
	var buf bytes.Buffer
	appendRecord(&buf, walDone, donePayload(goodID, false, goodData))
	// Checksummed but content-address-mismatched: id does not equal the
	// embedded spec's address.
	appendRecord(&buf, walDone, donePayload("deadbeef", false, mismatchData))
	appendRecord(&buf, walDone, donePayload(transID, true, transData))
	buf.Write([]byte{walSubmit, 0xff, 0x03}) // torn mid-append
	if err := os.WriteFile(filepath.Join(dir, walName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1, Backlog: 4, StateDir: dir,
		Runner: func(s experiments.Spec, attempt int) (core.Result, error) {
			return core.Result{}, nil
		}})
	t.Cleanup(srv.Close)

	status, result, ok := srv.lookup(goodID)
	if !ok || status != jobapi.StatusDone || !bytes.Equal(result, goodData) {
		t.Fatalf("good record not recovered: ok=%v status=%q", ok, status)
	}
	if _, _, ok := srv.lookup("deadbeef"); ok {
		t.Fatal("address-mismatched record was replayed")
	}
	if _, _, ok := srv.lookup(transID); ok {
		t.Fatal("transient failure re-entered the cache on replay")
	}

	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, goodLen := parseRecords(raw)
	if goodLen != len(raw) {
		t.Fatalf("compacted journal still has a bad tail at %d/%d", goodLen, len(raw))
	}
	// The mismatched record and the torn tail are gone; the good result
	// and the answered-but-uncacheable transient record survive (the
	// transient record marks its job answered, so recovery won't re-run
	// it, but it never re-enters the cache).
	if len(recs) != 2 || recs[0].id != goodID || recs[1].id != transID {
		t.Fatalf("compacted journal has %d records, want good + transient", len(recs))
	}
	recovered := srv.m.walRecoveredResults.Load()
	if recovered != 1 {
		t.Fatalf("wal_recovered_results = %d, want 1", recovered)
	}
}

// TestOpenBadStateDir: an unusable state directory is a structured Open
// error, not a panic'd daemon.
func TestOpenBadStateDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{StateDir: f}); err == nil {
		t.Fatal("Open succeeded with a file as its state dir")
	}
}
