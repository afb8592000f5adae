package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nexsim/internal/experiments"
)

// serveRun is the state of one serve_mix round.
type serveRun struct {
	r    *Round
	o    RoundOpts
	t    *tier
	hot  []serveKey
	warm []serveKey
	// seen is the hash of the first answer received for a content
	// address; every later answer for it must be byte-identical.
	seen map[string]string
	// coldNext numbers cold keys, so none repeats within the process.
	coldNext int
}

// tenantOf spreads requests over the tenants of the admission gate.
func tenantOf(i int) string { return "tenant" + strconv.Itoa(i%serveTenants) }

// keysFor resolves a schedule to the requests it sends; cold keys are
// built here, before the phase, not on the timed path.
func (s *serveRun) keysFor(arrivals []Arrival) ([]serveKey, error) {
	keys := make([]serveKey, len(arrivals))
	for i, a := range arrivals {
		switch a.Class {
		case classHot:
			keys[i] = s.hot[a.Key]
		case classWarm:
			keys[i] = s.warm[a.Key]
		default:
			k, err := newServeKey(s.o.Seed, "cold", a.Key)
			if err != nil {
				return nil, err
			}
			keys[i] = k
		}
	}
	return keys, nil
}

// outcome is what a client recorded for one request.
type outcome struct {
	ans  answer
	hash string
}

// judge folds one phase's outcomes into the round: every request is an
// attempt; a transport error, a non-200, an answer for another spec and
// an answer whose bytes differ from an earlier answer for the same spec
// count as failed, a correct answer later than lateLimitMS as late.
func (s *serveRun) judge(phase string, keys []serveKey, outs []outcome, latMS []float64) {
	for i := range outs {
		s.r.Attempted++
		k := keys[i]
		if err := outs[i].ans.check(k); err != nil {
			s.r.fail("%s request %d: %v", phase, i, err)
			continue
		}
		if first, ok := s.seen[k.id]; !ok {
			s.seen[k.id] = outs[i].hash
		} else if first != outs[i].hash {
			s.r.fail("%s request %d: bytes for spec %.12s differ from its first answer", phase, i, k.id)
			continue
		}
		if latMS != nil && latMS[i] > lateLimitMS {
			s.r.Late++
			s.r.note("late: %s request %d answered after %.0f ms", phase, i, latMS[i])
		}
	}
}

// sender returns the per-request send function of a phase and the slice
// it records into.
func (s *serveRun) sender(keys []serveKey, tr *Tracer) (func(i int), []outcome) {
	outs := make([]outcome, len(keys))
	return func(i int) {
		span := tr.Begin("client", 0, keys[i].id)
		a := s.t.submit(s.t.routerAddr, keys[i], tenantOf(i), span)
		tr.End(span)
		outs[i] = outcome{ans: a, hash: hashHex(a.result)}
	}, outs
}

// openPhase plays one open-loop phase and returns per-request latency,
// class and the generator's lateness.
func (s *serveRun) openPhase(phase string, rate float64, d time.Duration, tr *Tracer) (latMS []float64, classes []int, lateMS []float64, err error) {
	arrivals := OpenSchedule(s.o.Seed, phase, rate, d, s.coldNext)
	keys, err := s.keysFor(arrivals)
	if err != nil {
		return nil, nil, nil, err
	}
	due := make([]time.Duration, len(arrivals))
	classes = make([]int, len(arrivals))
	for i, a := range arrivals {
		due[i] = a.Due
		classes[i] = a.Class
		if a.Class == classCold {
			s.coldNext = a.Key + 1
		}
	}
	send, outs := s.sender(keys, tr)
	latMS, lateMS = OpenLoop(due, serveClients, send)
	s.judge(phase, keys, outs, latMS)
	return latMS, classes, finite(lateMS), nil
}

// byClass selects the latencies of one class.
func byClass(latMS []float64, classes []int, class int) []float64 {
	var out []float64
	for i, c := range classes {
		if c == class {
			out = append(out, latMS[i])
		}
	}
	return out
}

// simTimeUS extracts sim_time_ps from canonical JobResult bytes.
func simTimeUS(result []byte) float64 {
	const field = `"sim_time_ps":`
	i := bytes.Index(result, []byte(field))
	if i < 0 {
		return 0
	}
	rest := result[i+len(field):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	ps, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return 0
	}
	return ps / 1e6
}

// runServeRound measures one round of serve_mix.
func runServeRound(r *Round, o RoundOpts) error {
	experiments.SetParallelism(1)
	experiments.SetIntra(1)
	experiments.SetCheckpoints(false)
	ck0 := experiments.CheckpointStats()
	outDir := o.OutDir
	if outDir == "" {
		outDir = os.TempDir()
	}
	t, err := newTier(filepath.Join(outDir, fmt.Sprintf("state-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer t.close()
	s := &serveRun{r: r, o: o, t: t, seen: map[string]string{}}

	// Set-up: build the key universes, pre-submit the hot set, and fill
	// the result caches with the most popular warm keys.
	for k := 0; k < hotKeys; k++ {
		key, err := newServeKey(o.Seed, "hot", k)
		if err != nil {
			return err
		}
		s.hot = append(s.hot, key)
	}
	for k := 0; k < warmKeys; k++ {
		key, err := newServeKey(o.Seed, "warm", k)
		if err != nil {
			return err
		}
		s.warm = append(s.warm, key)
	}
	prefill := warmPrefill
	if o.Tiny {
		prefill = sampleKeys
	}
	setup := append(append([]serveKey(nil), s.hot...), s.warm[:prefill]...)
	send, outs := s.sender(setup, nil)
	ClosedLoop(len(setup), serveClients, time.Hour, send)
	s.judge("set-up", setup, outs, nil)
	if r.Failed > 0 {
		return fmt.Errorf("serve_mix set-up failed: %v", r.Failures)
	}
	r.ReadyUnixNano = now().UnixNano()

	seconds := func(share float64) time.Duration {
		return time.Duration(o.Seconds * share * float64(time.Second))
	}
	before := t.shardTotals()

	// Phase 1: open loop at rate_lo.
	loMS, loClass, lateLo, err := s.openPhase("lo", rateLo, seconds(shareLo), nil)
	if err != nil {
		return err
	}
	// Phase 2: open loop at rate_hi.
	hiMS, _, lateHi, err := s.openPhase("hi", rateHi, seconds(shareHi), nil)
	if err != nil {
		return err
	}
	// Phase 3: closed loop, machine-normalised like the batch passes.
	closedFor := seconds(shareClosed)
	seq := ClosedSequence(o.Seed, "closed", int(4*rateHi*closedFor.Seconds())+serveClients, s.coldNext)
	keys, err := s.keysFor(seq)
	if err != nil {
		return err
	}
	send, outs = s.sender(keys, nil)
	calBefore := calibrateSteady()
	closedMS, wallMS := ClosedLoop(len(keys), serveClients, closedFor, send)
	calAfter := calibrateSteady()
	done := len(closedMS)
	s.judge("closed", keys[:done], outs[:done], closedMS)
	s.coldNext += len(seq)
	normWallS := normalise(wallMS, (calBefore+calAfter)/2) / 1000
	servedUS := 0.0
	for _, out := range outs[:done] {
		servedUS += simTimeUS(out.ans.result)
	}
	after := t.shardTotals()
	routerPage := scrape(t.router.Handler())

	hitMS, missMS := byClass(loMS, loClass, classHot), byClass(loMS, loClass, classCold)
	late := append(lateLo, lateHi...)
	r.series("lo_ms", loMS)
	r.series("hi_ms", hiMS)
	r.series("hit_ms", hitMS)
	r.series("miss_ms", missMS)
	r.series("late_ms", late)
	r.set("p50_ms", median(loMS), "ms", len(loMS))
	r.set("p99_ms", quantile(loMS, 99), "ms", len(loMS))
	r.set("hit_p50_ms", median(hitMS), "ms", len(hitMS))
	r.set("miss_p50_ms", median(missMS), "ms", len(missMS))
	r.set("p99_hi_ms", quantile(hiMS, 99), "ms", len(hiMS))
	r.set("capacity_rps", float64(done)/normWallS, "req/s", done)
	r.set("sim_us_per_s", servedUS/normWallS, "us/s", done)
	r.set("bench.gen_late_p50_ms", median(late), "ms", len(late))
	r.set("bench.gen_late_p99_ms", quantile(late, 99), "ms", len(late))
	r.set("bench.cal_ms", (calBefore+calAfter)/2, "ms", 2)
	r.set("bench.closed_p50_ms", median(closedMS), "ms", done)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("simserve_cache_hits"), delta("simserve_cache_misses")
	if hits+misses > 0 {
		r.set("simserve.cache_hit_pct", 100*hits/(hits+misses), "%", int(hits+misses))
	}
	r.set("simserve.evictions", delta("simserve_cache_evictions"), "count", 1)
	r.set("simserve.deduped", delta("simserve_jobs_deduped"), "count", 1)
	r.set("simserve.retries", delta("simserve_retries_total"), "count", 1)
	r.set("simserve.wal_append_errors", delta("simserve_wal_append_errors"), "count", 1)
	if n := delta("simserve_bench_wall_ms_count"); n > 0 {
		r.set("simserve.run_ms_per_miss", delta("simserve_bench_wall_ms_sum")/n, "ms", int(n))
	}
	for _, name := range []string{"failovers", "hedges_launched", "probe_mismatches", "shed_429", "hotset_pushes", "admission_rejects"} {
		r.set("cluster."+name, routerPage["simrouter_"+name], "count", 1)
	}
	// No modelled CPU instruction is executed on this path (host=nex).
	r.count("cpu.instructions", 0)
	r.count("checkpoint.store_hits", int64(experiments.CheckpointStats().Hits-ck0.Hits))

	if o.Traced {
		if err := s.tracedPhase(median(loMS)); err != nil {
			return err
		}
		if err := s.layers(); err != nil {
			return err
		}
	}
	return s.sampleCheck()
}

// tracedPhase replays a short rate_lo phase with the span recorder on:
// client → cluster.handler → simserve.handler → engine per request,
// correlated by content address.
func (s *serveRun) tracedPhase(untracedP50 float64) error {
	d := time.Duration(s.o.Seconds * shareLo / 2 * float64(time.Second))
	tr := NewTracer()
	s.t.tracer.Store(tr)
	latMS, _, _, err := s.openPhase("traced", rateLo, d, tr)
	s.t.tracer.Store(nil)
	if err != nil {
		return err
	}
	if untracedP50 > 0 && len(latMS) > 0 {
		s.r.set("bench.trace_overhead_pct", 100*(median(latMS)-untracedP50)/untracedP50, "%", len(latMS))
	}
	spans := tr.Spans()
	s.r.SelfTimes = SelfTimes(spans)
	if s.o.OutDir != "" {
		return WriteChromeTrace(filepath.Join(s.o.OutDir, "trace_"+ServeMix+".json"), spans)
	}
	return nil
}

// layers takes the serving tier's substitution metrics: the same hot
// request sent through the router and straight to a shard (the hop),
// the loopback floor under both, and a hot-set push.
func (s *serveRun) layers() error {
	n := 400
	if s.o.Tiny {
		n = 20
	}
	one := func(addr string, keys []serveKey) ([]float64, error) {
		lat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			t := now()
			a := s.t.submit(addr, k, tenantOf(i), 0)
			lat = append(lat, since(t))
			if err := a.check(k); err != nil {
				return nil, err
			}
		}
		return lat, nil
	}
	// Touch every hot key on shard 0 once so the timed direct requests
	// are hits there, as the routed ones are on their home shards.
	if _, err := one(s.t.shardAddrs[0], s.hot); err != nil {
		return err
	}
	direct, err := one(s.t.shardAddrs[0], s.hot)
	if err != nil {
		return err
	}
	routed, err := one(s.t.routerAddr, s.hot)
	if err != nil {
		return err
	}
	s.r.set("cluster.hop_us", 1000*(median(routed)-median(direct)), "us", n)
	s.r.set("simserve.direct_hit_us", 1000*median(direct), "us", n)

	echoAddr, err := s.t.listen(serveShards+1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(w, r.Body); err != nil {
			return
		}
	}))
	if err != nil {
		return err
	}
	echo := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := now()
		resp, err := s.t.client.Post("http://"+echoAddr+"/", "application/json", bytes.NewReader(s.hot[0].body))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // fully read
		if err != nil {
			return err
		}
		echo = append(echo, since(t))
	}
	s.r.set("http.echo_us", 1000*median(echo), "us", n)

	push := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		t := now()
		s.t.router.PushHotSet()
		push = append(push, since(t))
	}
	s.r.set("cluster.hotset_push_ms", median(push), "ms", len(push))
	return nil
}

// sampleCheck compares, for the 64-spec sample (the hot set and the 32
// most popular warm keys), the bytes the router returns now against the
// first answer (judge) and against a direct submit to one shard, and
// makes the sample's bytes the round's golden text.
func (s *serveRun) sampleCheck() error {
	sample := append(append([]serveKey(nil), s.hot...), s.warm[:sampleKeys]...)
	var lines []string
	for i, k := range sample {
		routed := s.t.submit(s.t.routerAddr, k, tenantOf(i), 0)
		direct := s.t.submit(s.t.shardAddrs[i%serveShards], k, "", 0)
		s.judge("sample", []serveKey{k, k},
			[]outcome{{routed, hashHex(routed.result)}, {direct, hashHex(direct.result)}}, nil)
		lines = append(lines, bytesLine(k.id, routed.result))
	}
	s.r.Golden = goldenText(lines)
	return nil
}
