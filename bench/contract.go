package bench

import "time"

// PerLayer are the per-layer metrics BENCHMARK.json lists: what a
// single-workload run prints with -trace 1. A metric that does not
// apply to the workload being run reads 0 there (cpu.instructions on
// the three workloads that execute no modelled instruction, the serving
// counters on the batch workloads, ...). The first block holds the
// per-workload end-to-end names, which only one kind of workload
// defines.
var PerLayer = []Def{
	{"op_tail_ms", "ms", "lower", 0},
	{"pass_ms", "ms", "lower", 0},
	{"pass_p80_ms", "ms", "lower", 0},
	{"sim_mips", "Minstr/s", "higher", 0},
	{"nex_err_pct", "%", "lower", 0},
	{"p50_ms", "ms", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"hit_p50_ms", "ms", "lower", 0},
	{"miss_p50_ms", "ms", "lower", 0},
	{"p99_hi_ms", "ms", "lower", 0},
	{"capacity_rps", "req/s", "higher", 0},
	{"fail_share", "ratio", "lower", 0},

	{"cpu.instructions", "count", "lower", 0},
	{"cpu.cycles", "count", "lower", 0},
	{"cpu.l1_miss_pct", "%", "lower", 0},
	{"cpu.ns_per_instr.l1", "ns", "lower", 0},
	{"cpu.ns_per_instr.l2", "ns", "lower", 0},
	{"cpu.ns_per_instr.mem", "ns", "lower", 0},
	{"cpu.share_pct", "%", "lower", 0},

	{"cachesim.ns_per_access.hit", "ns", "lower", 0},
	{"cachesim.ns_per_access.miss", "ns", "lower", 0},
	{"dram.ns_per_access", "ns", "lower", 0},
	{"dram.row_hit_pct", "%", "higher", 0},
	{"mem.ns_per_kb", "ns", "lower", 0},
	{"interconnect.ns_per_dma4k.pcie", "ns", "lower", 0},
	{"interconnect.ns_per_dma4k.onchip", "ns", "lower", 0},
	{"accel.dma_bytes", "count", "lower", 0},

	{"exacthost.run_ms", "ms", "lower", 0},
	{"eventq.ns_per_event", "ns", "lower", 0},
	{"coro.ns_per_switch", "ns", "lower", 0},

	{"nex.epochs", "count", "lower", 0},
	{"nex.thread_epochs", "count", "lower", 0},
	{"nex.rounds", "count", "lower", 0},
	{"nex.traps", "count", "lower", 0},
	{"nex.syncs", "count", "lower", 0},
	{"nex.idle_jumps", "count", "lower", 0},
	{"nex.ns_per_thread_epoch", "ns", "lower", 0},

	{"dsim.host_steps", "count", "lower", 0},
	{"rtl.host_steps", "count", "lower", 0},
	{"accel.tasks", "count", "higher", 0},
	{"lpn.ns_per_firing", "ns", "lower", 0},
	{"accel.rtl_minus_dsim_ms", "ms", "lower", 0},
	{"accel.memo_fill_ms", "ms", "lower", 0},

	{"simbricks.ns_per_msg", "ns", "lower", 0},
	{"simbricks.chan_overhead_ms", "ms", "lower", 0},

	{"checkpoint.prefix_run_ms", "ms", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.restore_ms", "ms", "lower", 0},
	{"core.resume_ms", "ms", "lower", 0},
	{"checkpoint.blob_kb", "KB", "lower", 0},
	{"checkpoint.store_hits", "count", "higher", 0},
	{"checkpoint.store_misses", "count", "lower", 0},
	{"checkpoint.evictions", "count", "lower", 0},
	{"checkpoint.fork_saving_x", "x", "higher", 0},

	{"sweep.us_per_job", "us", "lower", 0},
	{"sweep.pool_us_per_job", "us", "lower", 0},
	{"sweep.speedup_p2", "x", "higher", 0},
	{"experiments.id_us", "us", "lower", 0},
	{"experiments.plan_us", "us", "lower", 0},
	{"workloads.byname_us", "us", "lower", 0},
	{"workloads.program_ms", "ms", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"core.release_ms", "ms", "lower", 0},

	{"parsim.intra2_x", "x", "higher", 0},
	{"parsim.device_wall_ms", "ms", "lower", 0},
	{"trace.on_overhead_pct", "%", "lower", 0},

	{"simserve.hit_us", "us", "lower", 0},
	{"simserve.miss_overhead_us", "us", "lower", 0},
	{"simserve.wal_append_us", "us", "lower", 0},
	{"simserve.wal_replay_ms_per_krec", "ms", "lower", 0},
	{"simserve.metrics_us", "us", "lower", 0},
	{"simserve.cache_hit_pct", "%", "higher", 0},
	{"simserve.evictions", "count", "lower", 0},
	{"simserve.deduped", "count", "higher", 0},
	{"simserve.retries", "count", "lower", 0},
	{"simserve.run_ms_per_miss", "ms", "lower", 0},

	{"cluster.ring_pick_ns", "ns", "lower", 0},
	{"cluster.admit_ns", "ns", "lower", 0},
	{"cluster.hop_us", "us", "lower", 0},
	{"cluster.hotset_push_ms", "ms", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"cluster.hedges_launched", "count", "lower", 0},
	{"cluster.probe_mismatches", "count", "lower", 0},
	{"cluster.shed_429", "count", "lower", 0},
	{"cluster.hotset_pushes", "count", "higher", 0},
	{"cluster.admission_rejects", "count", "lower", 0},

	{"http.echo_us", "us", "lower", 0},
	{"runtime.alloc_mb_per_pass", "MB", "lower", 0},
	{"runtime.gc_cycles", "1/pass", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"bench.gen_late_p50_ms", "ms", "lower", 0},
	{"bench.gen_late_p99_ms", "ms", "lower", 0},
	{"bench.raw_pass_ms", "ms", "lower", 0},
	{"bench.cal_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// Now exposes the bench's clock to the command (which is linted like
// the rest of bench/).
func Now() time.Time { return now() }

// GoldenName is the file name, under bench/golden, of a workload's
// golden text for a seed.
func GoldenName(workload string, seed uint64) string { return goldenName(workload, seed) }

// MergeTraced adds what only the traced round measures — the self-time
// table and the per-layer metrics the untraced rounds do not take — to
// a report built from untraced rounds. Metrics the report already has
// keep their untraced values.
func (r *Report) MergeTraced(tr *Round) {
	r.SelfTimes = tr.SelfTimes
	r.Attempted += tr.Attempted
	r.Failed += tr.Failed
	r.Late += tr.Late
	for _, f := range tr.Failures {
		r.Failures = append(r.Failures, "traced round: "+f)
	}
	for _, m := range tr.Metrics {
		if _, have := r.Get(m.Name); !have {
			r.Metrics = append(r.Metrics, m)
		}
	}
	sortMetrics(r.Metrics)
}

// AddProbes appends the workload-independent probe metrics.
func (r *Report) AddProbes(probes []Metric) {
	for _, m := range probes {
		r.put(m)
	}
	sortMetrics(r.Metrics)
}

// ResultValue is one metric of the result line.
type ResultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine is the single-workload run's last line of output.
type ResultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]ResultValue `json:"metrics"`
}

// ResultLine renders the report's last output line: every EndToEnd
// metric of an untraced run, every PerLayer metric of a traced one.
func (r *Report) ResultLine(traced bool) ResultLine {
	defs := EndToEnd
	if traced {
		defs = PerLayer
	}
	out := ResultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]ResultValue, len(defs))}
	for _, d := range defs {
		m, _ := r.Get(d.Name)
		out.Metrics[d.Name] = ResultValue{Value: m.Value, Unit: d.Unit}
	}
	return out
}
