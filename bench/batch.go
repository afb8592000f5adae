package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/stats"
	"nexsim/internal/trace"
)

// refPassMS is the wall time of one pass plus its calibration sample on
// the reference box (frozen with the bounds in bounds.md).
var refPassMS = map[string]float64{Gem5RTLTables: 680, NexDSimTables: 170, SweepFork: 465}

// passHeadroom is the share of a round's measuring time the pass count
// is sized to fill at reference speed.
const passHeadroom = 0.85

// minPasses is the fewest passes a round times, however short it is.
const minPasses = 3

// passesFor is the number of passes a round of a batch workload times.
// Work is fixed by count: the count depends on the round's length and the
// frozen constants above, never on how fast this machine runs, so the
// sample count behind a percentile and the memory a round grows to are
// the same on every run. A slower machine takes longer over them.
func passesFor(workload string, seconds float64) int {
	return max(minPasses, int(passHeadroom*seconds*1000/refPassMS[workload]))
}

// passResult is one timed pass of a batch workload.
type passResult struct {
	results []core.Result // in spec order; cold results first, then warm, for sweep_fork
	coldMS  float64       // sweep_fork: the cold-store half
	warmMS  float64       // sweep_fork: the warm-store half
}

// runPass runs one pass the way a user of the experiments package
// would: one RunSpecs call over the whole spec list (two for
// sweep_fork: a cold prefix store, then a warm one).
func runPass(workload string, specs []experiments.Spec) (passResult, error) {
	if workload != SweepFork {
		res, err := experiments.RunSpecs(specs)
		return passResult{results: res}, err
	}
	experiments.ResetCheckpointStore()
	t := now()
	cold, err := experiments.RunSpecs(specs)
	if err != nil {
		return passResult{}, err
	}
	coldMS := since(t)
	t = now()
	warm, err := experiments.RunSpecs(specs)
	if err != nil {
		return passResult{}, err
	}
	return passResult{results: append(cold, warm...), coldMS: coldMS, warmMS: since(t)}, nil
}

// timeSpecs runs specs once through RunSpecs and returns the wall time.
func timeSpecs(specs []experiments.Spec) (float64, []core.Result, error) {
	t := now()
	res, err := experiments.RunSpecs(specs)
	return since(t), res, err
}

// medianOf runs fn k times and returns the median of what it measures.
func medianOf(k int, fn func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// straightPass runs every spec step by step, straight through.
func straightPass(tr *Tracer, parent int, specs []experiments.Spec) ([]stepRun, error) {
	runs := make([]stepRun, 0, len(specs))
	for _, s := range specs {
		r, err := runSteps(tr, parent, s)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", s.Bench, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// forkedPass runs the sweep families step by step, forking every member
// from its family's prefix snapshot.
func forkedPass(tr *Tracer, parent int, o RoundOpts) ([]stepRun, forkTimes, error) {
	var all []stepRun
	var total forkTimes
	for _, fam := range SweepFamilies(o.Seed) {
		fam.Specs = sized(o.Tiny, fam.Specs)
		if len(fam.Specs) == 0 {
			continue
		}
		runs, ft, err := runFamilySteps(tr, parent, fam)
		if err != nil {
			return nil, total, err
		}
		all = append(all, runs...)
		total.PrefixRunMS += ft.PrefixRunMS
		total.EncodeMS += ft.EncodeMS
		total.RestoreMS += ft.RestoreMS
		total.ResumeMS += ft.ResumeMS
		total.BlobKB += ft.BlobKB
		total.Forks += ft.Forks
	}
	return all, total, nil
}

// linesOf renders the golden lines of step runs.
func linesOf(runs []stepRun) []string {
	lines := make([]string, len(runs))
	for i, r := range runs {
		lines[i] = resultLine(r.ID, r.Result)
	}
	return lines
}

// runBatchRound measures one round of a batch workload.
func runBatchRound(r *Round, o RoundOpts) error {
	experiments.SetParallelism(1)
	experiments.SetIntra(1)
	experiments.SetCheckpoints(o.Workload == SweepFork)
	specs := sized(o.Tiny, BatchSpecs(o.Workload, o.Seed))
	ck0 := experiments.CheckpointStats()

	// Set-up: one untimed straight pass, step by step. It fills the
	// functional-track memo caches, yields the reference result of
	// every spec (what each later pass, fork and traced run must
	// reproduce) and reads the CPU model's counters, which RunSpecs
	// does not expose.
	t := now()
	ref, err := straightPass(nil, 0, specs)
	if err != nil {
		return err
	}
	warmupMS := since(t)
	refLine := make(map[string]string, len(ref))
	ids := make([]string, len(ref))
	for i, run := range ref {
		ids[i] = run.ID
		refLine[run.ID] = resultLine(run.ID, run.Result)
	}
	r.Golden = goldenText(linesOf(ref))
	r.ReadyUnixNano = now().UnixNano()

	passes := passesFor(o.Workload, o.Seconds)
	if o.Tiny {
		passes = 1
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var rawMS, calMS, normMS, coldMS, warmMS, nsPerThreadEpoch []float64
	simUS, normTotalMS := 0.0, 0.0
	calPrev := calibrate()
	for pass := 0; pass < passes; pass++ {
		t := now()
		p, err := runPass(o.Workload, specs)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		raw := since(t)
		cal := calibrate()
		norm := normalise(raw, (calPrev+cal)/2)
		calPrev = cal
		rawMS = append(rawMS, raw)
		calMS = append(calMS, cal)
		normMS = append(normMS, norm)
		normTotalMS += norm
		if o.Workload == SweepFork {
			coldMS = append(coldMS, p.coldMS)
			warmMS = append(warmMS, p.warmMS)
		}
		var npbNS, npbEpochs float64
		for i, res := range p.results {
			id := ids[i%len(ids)]
			r.Attempted++
			if got := resultLine(id, res); got != refLine[id] {
				r.fail("pass %d: %s result differs from the set-up pass", pass, specs[i%len(specs)].Bench)
			}
			simUS += float64(res.SimTime) / 1e6
			if strings.HasPrefix(specs[i%len(specs)].Bench, "npb-") {
				npbNS += float64(res.WallTime.Nanoseconds())
				npbEpochs += float64(res.NEXStats.ThreadEpochs)
			}
		}
		if npbEpochs > 0 {
			nsPerThreadEpoch = append(nsPerThreadEpoch, npbNS/npbEpochs)
		}
	}
	mem := memSince(&mem0)

	r.series("pass_ms", normMS)
	r.set("pass_ms", median(normMS), "ms", passes)
	r.set("sim_us_per_s", simUS/(normTotalMS/1000), "us/s", passes)
	r.set("bench.raw_pass_ms", median(rawMS), "ms", passes)
	r.set("bench.cal_ms", median(calMS), "ms", passes)
	r.set("runtime.alloc_mb_per_pass", mem.AllocMB/float64(passes), "MB", passes)
	r.set("runtime.gc_cycles", float64(mem.GCCycles)/float64(passes), "1/pass", passes)
	r.set("runtime.gc_pause_ms", mem.GCPauseMS/float64(passes), "ms", passes)

	var cpu cpuCounts
	var nexEpochs, nexThreadEpochs, nexRounds, nexTraps, nexSyncs, nexIdle int64
	var dsimSteps, rtlSteps, tasks, dmaBytes int64
	var deviceWall time.Duration
	for _, run := range ref {
		cpu.add(run.CPU)
		st := run.Result.NEXStats
		nexEpochs += st.Epochs
		nexThreadEpochs += st.ThreadEpochs
		nexRounds += st.Rounds
		nexTraps += st.Traps
		nexSyncs += st.Syncs
		nexIdle += st.IdleJumps
		deviceWall += run.Result.DeviceWall
		for _, d := range run.Result.Devices {
			tasks += d.TasksCompleted
			dmaBytes += d.DMABytes
			if run.Result.Accel == core.AccelRTL {
				rtlSteps += d.HostSteps
			} else {
				dsimSteps += d.HostSteps
			}
		}
	}
	r.count("cpu.instructions", cpu.Instructions)
	r.count("cpu.cycles", cpu.Cycles)
	l1 := 0.0
	if acc := cpu.L1Hits + cpu.L1Misses; acc > 0 {
		l1 = 100 * float64(cpu.L1Misses) / float64(acc)
	}
	r.exact("cpu.l1_miss_pct", l1, "%", 1)
	r.set("sim_mips", float64(cpu.Instructions)*float64(passes)/(normTotalMS/1000)/1e6, "Minstr/s", passes)
	r.count("nex.epochs", nexEpochs)
	r.count("nex.thread_epochs", nexThreadEpochs)
	r.count("nex.rounds", nexRounds)
	r.count("nex.traps", nexTraps)
	r.count("nex.syncs", nexSyncs)
	r.count("nex.idle_jumps", nexIdle)
	r.count("dsim.host_steps", dsimSteps)
	r.count("rtl.host_steps", rtlSteps)
	r.count("accel.tasks", tasks)
	r.count("accel.dma_bytes", dmaBytes)
	r.set("parsim.device_wall_ms", ms(deviceWall), "ms", 1)
	if len(nsPerThreadEpoch) > 0 {
		r.set("nex.ns_per_thread_epoch", median(nsPerThreadEpoch), "ns", len(nsPerThreadEpoch))
	}
	if o.Workload == SweepFork {
		r.set("checkpoint.cold_pass_ms", median(coldMS), "ms", passes)
		r.set("checkpoint.warm_pass_ms", median(warmMS), "ms", passes)
	}
	// The prefix store's counters: for one pass of sweep_fork (whose
	// passes each start from a fresh store), over the whole round for
	// the other workloads (which must never touch it).
	ck := experiments.CheckpointStats()
	if o.Workload != SweepFork {
		ck.Hits -= ck0.Hits
		ck.Misses -= ck0.Misses
		ck.Evictions -= ck0.Evictions
	}
	r.count("checkpoint.store_hits", int64(ck.Hits))
	r.count("checkpoint.store_misses", int64(ck.Misses))
	r.count("checkpoint.evictions", int64(ck.Evictions))

	if o.Traced {
		if err := tracedBatch(r, o, specs, refLine); err != nil {
			return err
		}
		if err := batchLayers(r, o, specs, warmupMS, median(rawMS)); err != nil {
			return err
		}
	}
	return nil
}

// stepPass runs the workload's pass step by step (forked for
// sweep_fork, straight otherwise) and returns its wall time.
func stepPass(tr *Tracer, o RoundOpts, specs []experiments.Spec) ([]stepRun, forkTimes, float64, error) {
	root := tr.Begin("pass", 0, o.Workload)
	t := now()
	var runs []stepRun
	var ft forkTimes
	var err error
	if o.Workload == SweepFork {
		runs, ft, err = forkedPass(tr, root, o)
	} else {
		runs, err = straightPass(tr, root, specs)
	}
	wall := since(t)
	tr.End(root)
	return runs, ft, wall, err
}

// tracedBatch runs the step-by-step pass with the recorder off and on,
// alternating, checks that the traced results equal the reference, and
// reports the self-time table, the checkpoint step times and what the
// recorder costs.
func tracedBatch(r *Round, o RoundOpts, specs []experiments.Spec, refLine map[string]string) error {
	reps := 3
	if o.Tiny {
		reps = 1
	}
	tr := NewTracer()
	var off, on []float64
	var ft forkTimes
	for i := 0; i < reps; i++ {
		_, _, wall, err := stepPass(nil, o, specs)
		if err != nil {
			return err
		}
		off = append(off, wall)
		runs, times, wall, err := stepPass(tr, o, specs)
		if err != nil {
			return err
		}
		on = append(on, wall)
		ft = times
		for _, run := range runs {
			r.Attempted++
			if resultLine(run.ID, run.Result) != refLine[run.ID] {
				r.fail("traced run of %.12s differs from the untraced result", run.ID)
			}
		}
	}
	r.set("bench.trace_overhead_pct", 100*(median(on)-median(off))/median(off), "%", reps)
	r.set("bench.step_pass_ms", median(off), "ms", reps)
	if o.Workload == SweepFork {
		r.set("checkpoint.prefix_run_ms", ft.PrefixRunMS, "ms", 4)
		r.set("checkpoint.encode_ms", ft.EncodeMS, "ms", 4)
		r.set("checkpoint.restore_ms", ft.RestoreMS, "ms", ft.Forks)
		r.set("core.resume_ms", ft.ResumeMS, "ms", ft.Forks)
		r.set("checkpoint.blob_kb", ft.BlobKB, "KB", 4)
	}
	spans := tr.Spans()
	r.SelfTimes = SelfTimes(spans)
	if o.OutDir != "" {
		if err := WriteChromeTrace(filepath.Join(o.OutDir, "trace_"+o.Workload+".json"), spans); err != nil {
			return err
		}
	}
	return nil
}

// substitute returns specs with one field rewritten.
func substitute(specs []experiments.Spec, edit func(*experiments.Spec)) []experiments.Spec {
	out := append([]experiments.Spec(nil), specs...)
	for i := range out {
		edit(&out[i])
	}
	return out
}

// batchLayers takes the substitution metrics of a batch workload: the
// same specs with one engine, one attachment or one execution setting
// swapped, timed against the workload as it is.
func batchLayers(r *Round, o RoundOpts, specs []experiments.Spec, warmupMS, rawPassMS float64) error {
	reps := 3
	if o.Tiny {
		reps = 1
	}
	timed := func(ss []experiments.Spec) (float64, error) {
		return medianOf(reps, func() (float64, error) {
			wall, _, err := timeSpecs(ss)
			return wall, err
		})
	}

	// Memo fill: the set-up pass (cold memo caches) against the same
	// step-by-step pass now that they are warm.
	t := now()
	if _, err := straightPass(nil, 0, specs); err != nil {
		return err
	}
	r.set("accel.memo_fill_ms", warmupMS-since(t), "ms", 1)

	switch o.Workload {
	case Gem5RTLTables:
		// Host substitution: the reference host runs the same programs
		// on the same exact-time engine without the CPU model.
		refHost, err := timed(substitute(specs, func(s *experiments.Spec) { s.Host = "reference" }))
		if err != nil {
			return err
		}
		r.set("exacthost.run_ms", refHost, "ms", reps)
		r.set("cpu.share_pct", 100*(1-refHost/rawPassMS), "%", reps)
		// Intra-run overlap on a multi-device gem5+rtl spec.
		mpBench := "vta-resnet18-mp4"
		if o.Tiny {
			mpBench = "jpeg-mt.4"
		}
		mp := []experiments.Spec{{Bench: mpBench, Host: "gem5", Accel: "rtl", Seed: calSeed(o.Seed, "parsim")}}
		serial, err := timed(mp)
		if err != nil {
			return err
		}
		experiments.SetIntra(2)
		overlapped, err := timed(mp)
		experiments.SetIntra(1)
		if err != nil {
			return err
		}
		r.set("parsim.intra2_x", serial/overlapped, "x", reps)

	case NexDSimTables:
		accDSim := sized(o.Tiny, AcceleratedSpecs(o.Seed, "nex", "dsim"))
		dsimMS, err := timed(accDSim)
		if err != nil {
			return err
		}
		rtlMS, err := timed(sized(o.Tiny, AcceleratedSpecs(o.Seed, "nex", "rtl")))
		if err != nil {
			return err
		}
		r.set("accel.rtl_minus_dsim_ms", rtlMS-dsimMS, "ms", reps)

		// Accuracy against the in-repo reference engine (there is no
		// hardware validation in this repository): exact, so it is
		// taken once.
		_, truth, err := timeSpecs(sized(o.Tiny, AcceleratedSpecs(o.Seed, "reference", "rtl")))
		if err != nil {
			return err
		}
		_, fast, err := timeSpecs(accDSim)
		if err != nil {
			return err
		}
		errSum := 0.0
		for i := range truth {
			errSum += stats.RelErr(fast[i].SimTime, truth[i].SimTime)
		}
		r.exact("nex_err_pct", 100*errSum/float64(len(truth)), "%", len(truth))

		chanSpecs := []experiments.Spec{
			{Bench: "jpeg-mt.4", Host: "nex", Accel: "dsim", Seed: calSeed(o.Seed, "simbricks")},
			{Bench: "vta-matmul", Host: "nex", Accel: "dsim", Seed: calSeed(o.Seed, "simbricks")},
		}
		tight, err := timed(chanSpecs)
		if err != nil {
			return err
		}
		viaChan, err := timed(substitute(chanSpecs, func(s *experiments.Spec) { s.UseChannel = true }))
		if err != nil {
			return err
		}
		r.set("simbricks.chan_overhead_ms", viaChan-tight, "ms", reps)

		one, err := timed(specs)
		if err != nil {
			return err
		}
		experiments.SetParallelism(2)
		two, err := timed(specs)
		experiments.SetParallelism(1)
		if err != nil {
			return err
		}
		r.set("sweep.speedup_p2", one/two, "x", reps)

		overhead, err := traceRecorderOverhead(accDSim, reps)
		if err != nil {
			return err
		}
		r.set("trace.on_overhead_pct", overhead, "%", reps)

	case SweepFork:
		experiments.SetCheckpoints(false)
		straight, err := medianOf(reps, func() (float64, error) {
			a, _, err := timeSpecs(specs)
			if err != nil {
				return 0, err
			}
			b, _, err := timeSpecs(specs)
			return a + b, err
		})
		experiments.SetCheckpoints(true)
		if err != nil {
			return err
		}
		r.set("checkpoint.straight_pass_ms", straight, "ms", reps)
		r.set("checkpoint.fork_saving_x", straight/rawPassMS, "x", reps)
	}
	return nil
}

// traceRecorderOverhead runs specs step by step with core.Config.Trace
// unset and set (the engines' own simulated-time recorder, not the
// bench's spans) and returns the relative cost of recording.
func traceRecorderOverhead(specs []experiments.Spec, reps int) (float64, error) {
	run := func(record bool) (float64, error) {
		return medianOf(reps, func() (float64, error) {
			t := now()
			for _, raw := range specs {
				a, err := assemble(nil, 0, raw)
				if err != nil {
					return 0, err
				}
				if record {
					a.cfg.Trace = trace.New()
				}
				sys := core.Build(a.cfg)
				_, err = sys.TryRun(a.b.Build(&sys.Ctx))
				sys.Release()
				if err != nil {
					return 0, err
				}
			}
			return since(t), nil
		})
	}
	off, err := run(false)
	if err != nil {
		return 0, err
	}
	on, err := run(true)
	if err != nil {
		return 0, err
	}
	return 100 * (on - off) / off, nil
}
