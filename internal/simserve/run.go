package simserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/jobapi"
	"nexsim/internal/xrand"
)

// run executes one fresh job on a pool worker: attempt, retry
// transients with deterministic backoff, and publish the final result.
// When hedging is configured, a straggling primary gets a second
// identical attempt racing it; the first published result wins.
//
// A job every waiter abandoned while it sat in the queue is skipped
// here instead of executed: the queue slot was already freed by the
// pickup, and running it would burn a worker to compute an answer
// nobody is waiting for. (Its WAL submit record, if any, is only
// settled at the next compaction — a crash before then re-runs the
// spec, which is merely wasted work, never wrong answers.)
func (s *Server) run(j *job) {
	s.mu.Lock()
	if !j.keep && j.waiters == 0 {
		j.status = jobapi.StatusCanceled
		delete(s.jobs, j.id)
		s.m.jobsCanceled.Inc()
		s.mu.Unlock()
		close(j.done)
		return
	}
	j.status = jobapi.StatusRunning
	s.m.workersBusy.Inc()
	s.mu.Unlock()

	if s.cfg.HedgeAfter > 0 {
		timer := time.AfterFunc(s.cfg.HedgeAfter, func() { s.launchHedge(j) })
		defer timer.Stop()
	}

	start := time.Now()
	res, err, attempt := s.runWithRetries(j)
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)

	s.m.workersBusy.Add(-1)
	data, failed, transient := s.marshalResult(j, res, err, attempt)
	s.publish(j, data, failed, transient, wallMS, false)
}

// runWithRetries drives the primary attempt chain: transient failures
// back off (doubling, capped, spec-jittered) and re-run with the next
// attempt number — which matters, because Attempts-windowed injected
// faults expire and budget luck differs, so a retry can genuinely heal.
// Deterministic outcomes return immediately: re-running them buys
// nothing.
func (s *Server) runWithRetries(j *job) (core.Result, error, int) {
	attempt := 0
	for {
		res, err := s.safeRun(j.spec, attempt)
		if err == nil || !transientErr(err) || attempt >= s.cfg.MaxRetries {
			return res, err, attempt
		}
		s.m.retriesTotal.Inc()
		if errors.Is(err, core.ErrBudgetExceeded) {
			s.m.budgetAborts.Inc()
		}
		s.mu.Lock()
		published := j.published
		s.mu.Unlock()
		if published {
			// A hedge already answered; stop burning the worker.
			return res, err, attempt
		}
		time.Sleep(retryBackoff(j.id, attempt, s.cfg.RetryBackoff))
		attempt++
	}
}

// retryBackoff is the pause before retrying attempt+1: base doubled per
// attempt, capped at 1s, jittered ±25% by a stream derived from the
// spec's content address — deterministic per (spec, attempt), desynced
// across distinct specs.
func retryBackoff(id string, attempt int, base time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // fnv Write cannot fail
	st := xrand.New(h.Sum64()).Derive(fmt.Sprintf("backoff-%d", attempt))
	f := 0.75 + 0.5*st.Float64()
	return time.Duration(float64(d) * f)
}

// launchHedge submits a second identical attempt for a straggling job.
// The hedge re-runs attempt 0 — by determinism it must produce the
// same bytes the primary's attempt 0 would, so whichever publishes
// first is correct. Hedges only ever publish conclusive results: a
// transient failure is the retry chain's business, so a hedge that
// draws one quietly discards it.
func (s *Server) launchHedge(j *job) {
	s.mu.Lock()
	if j.published || s.closed {
		s.mu.Unlock()
		return
	}
	s.m.hedgesLaunched.Inc()
	s.mu.Unlock()
	err := s.pool.TrySubmit(func() {
		start := time.Now()
		res, rerr := s.safeRun(j.spec, 0)
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		if rerr != nil && transientErr(rerr) {
			return
		}
		data, failed, transient := s.marshalResult(j, res, rerr, 0)
		s.publish(j, data, failed, transient, wallMS, true)
	})
	if err != nil {
		// No capacity for speculation: the primary still owns the job.
		s.m.hedgesLaunched.Add(-1)
	}
}

// marshalResult renders one attempt's outcome into canonical JobResult
// bytes plus its caching classification.
func (s *Server) marshalResult(j *job, res core.Result, err error, attempt int) (data []byte, failed, transient bool) {
	jr := jobapi.JobResult{ID: j.id, Spec: j.spec}
	if err != nil {
		jr.Error = err.Error()
		jr.ErrorKind = jobapi.ErrorKindDeterministic
		jr.Attempt = attempt
		if transientErr(err) {
			jr.ErrorKind = jobapi.ErrorKindTransient
			transient = true
		}
		if errors.Is(err, core.ErrBudgetExceeded) {
			s.m.budgetAborts.Inc()
		}
	} else {
		jr.SimTimePS = int64(res.SimTime)
		jr.SimTime = res.SimTime.String()
		jr.NEXStats = res.NEXStats
		jr.Devices = res.Devices
	}
	out, merr := json.Marshal(jr)
	if merr != nil {
		jr = jobapi.JobResult{ID: j.id, Spec: j.spec, Error: merr.Error(), ErrorKind: jobapi.ErrorKindDeterministic}
		out, _ = json.Marshal(jr)
	}
	return out, jr.Error != "", transient
}

// publish installs a finished attempt's bytes as the job's result —
// exactly once. The losing side of a hedge race lands here too: its
// bytes are compared against the published ones, and a difference is a
// determinism violation surfaced on /metrics rather than swallowed.
// Transient failures are answered — and stay pollable for whoever was
// told to poll — but never cached: the next submit of the same spec
// runs fresh.
func (s *Server) publish(j *job, data []byte, failed, transient bool, wallMS float64, hedge bool) {
	s.mu.Lock()
	if j.published {
		if !bytes.Equal(data, j.result) {
			s.m.hedgeMismatches.Inc()
		}
		s.m.hedgesWasted.Inc()
		s.mu.Unlock()
		return
	}
	j.published = true
	j.result = data
	j.failed = failed
	e := cacheEntry{result: data, failed: failed}
	j.status = e.status()
	if failed {
		s.m.jobsFailed.Inc()
	} else {
		s.m.jobsCompleted.Inc()
	}
	if transient {
		s.m.transientFailures.Inc()
		s.transients.Put(j.id, e, 1)
	} else {
		s.cache.Put(j.id, e, 1)
	}
	if werr := s.wal.appendDone(j.id, failed, data); werr != nil {
		s.m.walAppendErrors.Inc()
	}
	delete(s.jobs, j.id)
	s.m.observeRun(j.spec.Bench, wallMS)
	if hedge {
		s.m.hedgesWon.Inc()
	}
	s.mu.Unlock()
	close(j.done)
}

// safeRun shields the worker pool from a panicking engine: a bad spec
// must fail its own job, not the daemon. An injected-fault panic (a
// custom runner surfacing engine chaos directly) keeps its transient
// classification through the recover.
func (s *Server) safeRun(spec experiments.Spec, attempt int) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && faults.IsInjected(e) {
				err = fmt.Errorf("run aborted by %w", e)
				return
			}
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	return s.cfg.Runner(spec, attempt)
}
