// Package simserve exposes the deterministic simulation engines as a
// long-running service: a bounded job queue and worker pool over
// internal/sweep, content-addressed result caching, singleflight
// deduplication of identical in-flight runs, and an operational HTTP
// surface (/jobs, /healthz, /metrics) served by cmd/simd.
//
// The paper's interactive workloads (§6.4 design sweeps, what-if
// epoch/latency exploration) are repeated queries over a small space of
// run configurations. A one-shot CLI redoes the full simulation for
// every question; a service answers a repeated question from cache.
// What makes that sound is determinism, which this repository enforces
// statically (simlint) and at runtime (byte-identical table tests): a
// run is a pure function of its experiments.Spec, so the spec's
// canonical-encoding SHA-256 is a true content address for its result
// and a cached result is byte-identical to a fresh run.
//
// Request flow: each submitted spec is normalized, addressed, and then
// either served from the LRU result cache (cache hit), attached to an
// identical run already queued or executing (singleflight dedup), or
// enqueued onto the bounded worker pool. A full queue sheds load with
// HTTP 429 instead of buffering without limit. Shutdown drains: queued
// and in-flight runs complete (their results land in the cache) before
// Close returns.
package simserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/jobapi"
	"nexsim/internal/lru"
	"nexsim/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the worker-pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// Backlog bounds the job queue; a submit finding it full is refused
	// with 429 (default 64).
	Backlog int
	// CacheEntries bounds the result cache (default 1024).
	CacheEntries int
	// WaitTimeout caps how long a wait=true submit blocks before
	// degrading to a 202 + poll response (default 60s).
	WaitTimeout time.Duration
	// MaxRetries caps how many times a transiently-failed run (injected
	// fault, budget abort) is re-attempted before its failure is
	// returned. Default 2; negative disables retries. Deterministic
	// failures are never retried — same spec, same failure.
	MaxRetries int
	// RetryBackoff is the pre-retry pause before attempt 1 (default
	// 25ms), doubling per attempt, capped at 1s, with ±25% jitter drawn
	// deterministically from the spec's content address — the same spec
	// backs off the same way every time.
	RetryBackoff time.Duration
	// RunBudget is the per-attempt wall budget handed to the engine
	// watchdogs (0 = none): an over-budget run aborts with
	// core.ErrBudgetExceeded (transient — retried, never cached) instead
	// of wedging its worker.
	RunBudget time.Duration
	// StateDir enables crash-safe persistence: answered results and
	// pending jobs journal to StateDir/results.wal (replayed on Open so
	// a killed daemon recovers its cache and re-runs in-flight work).
	// Empty means fully in-memory.
	StateDir string
	// ShardID names this daemon within a simrouter cluster. It is
	// operational identity only — never part of a spec or result, which
	// stay location-transparent — and surfaces on /metrics so cluster
	// tooling can tell which shard answered a scrape.
	ShardID string
	// Runner executes one normalized spec as the given attempt number
	// (default: experiments.RunSpecAttempt under RunBudget). Tests
	// inject instrumented runners here.
	Runner func(experiments.Spec, int) (core.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 60 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Runner == nil {
		budget := c.RunBudget
		c.Runner = func(s experiments.Spec, attempt int) (core.Result, error) {
			return experiments.RunSpecAttempt(s, attempt, budget)
		}
	}
	return c
}

// transientErr reports whether a run failure is transient: injected
// chaos or a budget abort, where a retry (or a resubmit) can
// legitimately see a different outcome. Everything else is
// deterministic — the same spec will fail the same way forever.
func transientErr(err error) bool {
	return errors.Is(err, faults.ErrInjected) || errors.Is(err, core.ErrBudgetExceeded)
}

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull    = errors.New("simserve: job queue full")
	ErrShuttingDown = errors.New("simserve: shutting down")
)

// job is one in-flight or just-completed run. done is closed after
// result/failed/status are final; until then those fields are guarded
// by the server lock.
type job struct {
	id     string
	spec   experiments.Spec // normalized
	done   chan struct{}
	status string
	result []byte
	// keep pins the job to completion regardless of waiters: async
	// submits (the client holds the id and will poll) and WAL-recovered
	// work. waiters counts wait=true requests currently blocked on the
	// job; a queued job whose last waiter disconnects before a worker
	// picks it up is skipped, freeing its queue slot for live traffic.
	keep    bool
	waiters int
}

// closedDone is the pre-closed channel completed-on-arrival jobs
// (cache hits) carry.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Server is the simulation-as-a-service engine front end.
type Server struct {
	cfg  Config
	pool *sweep.Pool

	mu   sync.Mutex
	jobs map[string]*job // in-flight, by content address
	// cache holds completed jobs' answers by the spec's content address.
	// Failed results are cached too: failures are as deterministic as
	// successes (same spec, same panic), so retrying them would burn a
	// worker to learn nothing new.
	cache *lru.Cache[string, jobapi.Finished]
	// transients holds the final answers of transiently-failed jobs so a
	// client that was told to poll (async submit, wait timeout) can still
	// collect them. They are answers, not facts: submit never reads them,
	// and a fresh run of the same spec drops the stale one.
	transients *lru.Cache[string, jobapi.Finished]
	m          *serverMetrics
	wal        *wal // nil without StateDir
	closed     bool
}

// New starts a server (its worker pool runs until Close). It panics on
// a state-directory error; services that want the error use Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server. With StateDir set it first recovers from the
// previous incarnation's journal: answered results re-enter the cache
// (byte-identical — determinism makes the replay sound), and jobs that
// were queued or running when the process died are resubmitted.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		pool:       sweep.NewPool(cfg.Workers, cfg.Backlog),
		jobs:       map[string]*job{},
		cache:      lru.New[string, jobapi.Finished](int64(cfg.CacheEntries)),
		transients: lru.New[string, jobapi.Finished](int64(cfg.CacheEntries)),
	}
	s.m = newMetrics(s)
	if cfg.StateDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("simserve: state dir: %w", err)
	}
	w, rec, err := openWAL(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, r := range rec.results {
		var jr jobapi.JobResult
		_ = json.Unmarshal(r.result, &jr) // verified by openWAL
		if jr.ErrorKind == jobapi.ErrorKindTransient {
			// Answered but not cacheable; keep it out of the cache on
			// replay too.
			continue
		}
		s.cache.Put(r.id, jobapi.Finished{Result: r.result, Failed: r.failed}, 1)
		s.m.walRecoveredResults.Inc()
	}
	s.wal = w
	s.mu.Unlock()
	// Resubmit interrupted work through the normal path (which re-journals
	// it into the compacted WAL). The queue is empty at open, so only a
	// pending set larger than the backlog can drop — counted, not silent.
	for _, sp := range rec.pending {
		if _, err := s.submit(sp, false); err != nil {
			s.m.walPendingDropped.Inc()
			continue
		}
		s.m.walRecoveredPending.Inc()
	}
	return s, nil
}

// Workers reports the worker-pool size.
func (s *Server) Workers() int { return s.pool.Workers() }

// Close stops accepting new jobs, drains queued and in-flight runs to
// completion, and returns. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
	s.mu.Lock()
	s.wal.close()
	s.wal = nil
	s.mu.Unlock()
}

// submit routes one spec: cache hit, singleflight attach, or fresh
// enqueue. Any returned job either is done or will close done when it
// is. waiter=true registers the calling request as a live waiter on the
// returned fresh/deduped job — the caller must balance it with
// releaseWaiters — while waiter=false pins the job to completion even
// if every client goes away (async submits, WAL recovery).
func (s *Server) submit(raw experiments.Spec, waiter bool) (*job, error) {
	n, err := raw.Normalized()
	if err != nil {
		return nil, err
	}
	id, err := n.ID()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache.Get(id); ok {
		s.m.cacheHits.Inc()
		return &job{id: id, spec: n, done: closedDone, status: e.Status(), result: e.Result}, nil
	}
	if j, ok := s.jobs[id]; ok {
		s.m.jobsDeduped.Inc()
		s.attach(j, waiter)
		return j, nil
	}
	s.m.cacheMisses.Inc()
	if s.closed {
		return nil, ErrShuttingDown
	}
	j := &job{id: id, spec: n, done: make(chan struct{}), status: jobapi.StatusQueued}
	s.attach(j, waiter)
	switch err := s.pool.TrySubmit(func() { s.run(j) }); {
	case errors.Is(err, sweep.ErrClosed):
		return nil, ErrShuttingDown
	case err != nil:
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.transients.Remove(id)
	s.m.jobsSubmitted.Inc()
	if specJSON, err := n.CanonicalJSON(); err == nil {
		if werr := s.wal.appendSubmit(id, specJSON); werr != nil {
			s.m.walAppendErrors.Inc()
		}
	}
	return j, nil
}

// attach records one more interested party on a job (caller holds the
// lock).
func (s *Server) attach(j *job, waiter bool) {
	if waiter {
		j.waiters++
	} else {
		j.keep = true
	}
}

// releaseWaiters detaches one waiter from each job (a wait=true request
// returning, however it returns). Jobs whose last waiter left while
// still queued are skipped when a worker picks them up.
func (s *Server) releaseWaiters(jobs []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if j.waiters > 0 {
			j.waiters--
		}
	}
}

// keepJobs pins jobs to completion: the client has been told their ids
// (202 + poll) or that they were accepted, so results must materialize
// even if the connection is gone.
func (s *Server) keepJobs(jobs []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		j.keep = true
	}
}

// lookup finds a job's current status and (when finished) result.
func (s *Server) lookup(id string) (status string, result []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, found := s.jobs[id]; found {
		return j.status, nil, true
	}
	e, found := s.cache.Get(id)
	if !found {
		e, found = s.transients.Get(id)
	}
	if !found {
		return "", nil, false
	}
	return e.Status(), e.Result, true
}
