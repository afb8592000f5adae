package simserve

import (
	"nexsim/internal/experiments"
	"nexsim/internal/faults"
	"nexsim/internal/metrics"
	"nexsim/internal/stats"
)

// serverMetrics is the daemon's operational counter set, served on
// /metrics by the registry. Counters are atomic, so they are bumped
// wherever the event happens, with or without the server lock; gauges
// owned by other components (queue, cache, checkpoint store, fault
// injector) are sampled at scrape time.
type serverMetrics struct {
	reg *metrics.Registry

	jobsSubmitted *metrics.Counter // specs accepted onto the queue (fresh runs)
	jobsCompleted *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCanceled  *metrics.Counter // queued jobs skipped at pickup (all waiters gone)
	jobsDeduped   *metrics.Counter // submits coalesced onto an in-flight identical run
	cacheHits     *metrics.Counter // submits served from the result cache
	cacheMisses   *metrics.Counter

	workersBusy *metrics.Counter // currently executing jobs (gauge)

	// Self-healing counters.
	retriesTotal      *metrics.Counter // transient failures re-attempted
	transientFailures *metrics.Counter // jobs answered with a transient failure (retries exhausted)
	budgetAborts      *metrics.Counter // attempts aborted by core.ErrBudgetExceeded
	hedgesLaunched    *metrics.Counter // speculative second attempts started
	hedgesWon         *metrics.Counter // hedges that published first
	hedgesWasted      *metrics.Counter // attempts finishing after another published
	hedgeMismatches   *metrics.Counter // hedge/primary byte mismatches (determinism violations)

	// Cluster hot-set counters (POST /cluster/hotset).
	hotsetPromoted   *metrics.Counter // pushed results verified and cached
	hotsetDuplicates *metrics.Counter // pushes for results already cached here
	hotsetRejected   *metrics.Counter // pushes failing content-address verification

	// Crash-safety counters (StateDir servers).
	walRecoveredResults *metrics.Counter // done records replayed into the cache at Open
	walRecoveredPending *metrics.Counter // interrupted jobs resubmitted at Open
	walPendingDropped   *metrics.Counter // interrupted jobs that no longer fit the queue
	walAppendErrors     *metrics.Counter // journal writes that failed (results stay in memory)

	// Per-benchmark run counts and wall-time histograms (milliseconds)
	// for completed fresh runs; cache hits cost no engine time and are
	// not recorded.
	benchRuns *metrics.CounterVec
	benchWall *metrics.HistogramVec
}

// wallBoundsMS are the histogram buckets: 0.25ms to ~8s, doubling.
var wallBoundsMS = stats.GeometricBounds(0.25, 2, 16)

// newMetrics builds s's registry; registration order is page order.
func newMetrics(s *Server) *serverMetrics {
	reg := metrics.New()
	m := &serverMetrics{reg: reg}
	if s.cfg.ShardID != "" {
		reg.Func(func(e *metrics.Encoder) { e.Int("simserve_shard", 1, "id", s.cfg.ShardID) })
	}
	m.jobsSubmitted = reg.Counter("simserve_jobs_submitted")
	m.jobsCompleted = reg.Counter("simserve_jobs_completed")
	m.jobsFailed = reg.Counter("simserve_jobs_failed")
	m.jobsCanceled = reg.Counter("simserve_jobs_canceled")
	m.jobsDeduped = reg.Counter("simserve_jobs_deduped")
	m.cacheHits = reg.Counter("simserve_cache_hits")
	m.cacheMisses = reg.Counter("simserve_cache_misses")
	reg.Func(func(e *metrics.Encoder) {
		s.mu.Lock()
		entries, evictions := s.cache.Len(), s.cache.Evictions()
		s.mu.Unlock()
		e.Int("simserve_cache_entries", int64(entries))
		e.Int("simserve_cache_evictions", int64(evictions))
		e.Int("simserve_queue_depth", int64(s.pool.Depth()))
		e.Int("simserve_queue_capacity", int64(s.pool.Capacity()))
		e.Int("simserve_workers", int64(s.pool.Workers()))
	})
	m.workersBusy = reg.Counter("simserve_workers_busy")
	reg.Func(func(e *metrics.Encoder) {
		ck := experiments.CheckpointStats()
		e.Int("simserve_checkpoint_entries", int64(ck.Entries))
		e.Int("simserve_checkpoint_bytes", ck.UsedBytes)
		e.Int("simserve_checkpoint_hits", int64(ck.Hits))
		e.Int("simserve_checkpoint_misses", int64(ck.Misses))
		e.Int("simserve_checkpoint_evictions", int64(ck.Evictions))
		e.Int("simserve_checkpoint_disk_hits", int64(ck.Disk.Hits))
		e.Int("simserve_checkpoint_disk_misses", int64(ck.Disk.Misses))
		e.Int("simserve_checkpoint_disk_corrupt", int64(ck.Disk.Corrupt))
		e.Int("simserve_checkpoint_disk_puts", int64(ck.Disk.Puts))
	})
	m.retriesTotal = reg.Counter("simserve_retries_total")
	m.transientFailures = reg.Counter("simserve_transient_failures")
	m.budgetAborts = reg.Counter("simserve_budget_aborts")
	m.hedgesLaunched = reg.Counter("simserve_hedges_launched")
	m.hedgesWon = reg.Counter("simserve_hedges_won")
	m.hedgesWasted = reg.Counter("simserve_hedges_wasted")
	m.hedgeMismatches = reg.Counter("simserve_hedge_mismatches")
	m.hotsetPromoted = reg.Counter("simserve_hotset_promoted")
	m.hotsetDuplicates = reg.Counter("simserve_hotset_duplicates")
	m.hotsetRejected = reg.Counter("simserve_hotset_rejected")
	m.walRecoveredResults = reg.Counter("simserve_wal_recovered_results")
	m.walRecoveredPending = reg.Counter("simserve_wal_recovered_pending")
	m.walPendingDropped = reg.Counter("simserve_wal_pending_dropped")
	m.walAppendErrors = reg.Counter("simserve_wal_append_errors")
	reg.Func(func(e *metrics.Encoder) {
		e.Int("simserve_faults_fired_total", faults.FiredTotal())
		sites, counts := faults.FiredBySite()
		for i, site := range sites {
			e.Int("simserve_faults_fired", counts[i], "site", site)
		}
	})
	m.benchRuns = reg.CounterVec("simserve_bench_runs", "bench")
	m.benchWall = reg.HistogramVec("simserve_bench_wall_ms", "bench", wallBoundsMS)
	return m
}

// observeRun records one completed fresh run of bench taking wallMS.
func (m *serverMetrics) observeRun(bench string, wallMS float64) {
	m.benchRuns.With(bench).Inc()
	m.benchWall.Observe(bench, wallMS)
}
