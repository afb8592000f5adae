package simserve

import (
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

	start := time.Now()
	res, err, attempt := s.runWithRetries(j)
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)

	s.m.workersBusy.Add(-1)
	data, failed, transient := s.marshalResult(j, res, err, attempt)
	s.publish(j, data, failed, transient, wallMS)
}

// runWithRetries drives the attempt chain: transient failures back off
// (doubling, capped, spec-jittered) and re-run with the next attempt
// number — which matters, because Attempts-windowed injected faults
// expire and budget luck differs, so a retry can genuinely heal.
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

// publish installs a finished job's bytes as its result. Transient
// failures are answered — and stay pollable for whoever was told to
// poll — but never cached: the next submit of the same spec runs fresh.
func (s *Server) publish(j *job, data []byte, failed, transient bool, wallMS float64) {
	s.mu.Lock()
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
