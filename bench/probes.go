package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nexsim/internal/cachesim"
	"nexsim/internal/cluster"
	"nexsim/internal/core"
	"nexsim/internal/coro"
	"nexsim/internal/cpu"
	"nexsim/internal/dram"
	"nexsim/internal/eventq"
	"nexsim/internal/experiments"
	"nexsim/internal/interconnect"
	"nexsim/internal/isa"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/simbricks"
	"nexsim/internal/simserve"
	"nexsim/internal/sweep"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// Direct-call probes: each times repeated calls into one layer's
// exported functions, for at least probeFor, and reports the
// machine-normalised median cost of one operation. They need no
// workload, so one child process runs them all.

// probeFor is the minimum time one probe measures.
const probeFor = 200 * time.Millisecond

// prober runs probes and collects their metrics.
type prober struct {
	minFor  time.Duration
	calPrev float64
	out     []Metric
}

// run times batches of fn (each call performs ops operations) until
// minFor has passed, and records the median normalised time per
// operation in unit (perOp converts nanoseconds to the unit). It returns
// the recorded metric.
func (p *prober) run(name, unit string, perOp float64, ops int, fn func()) Metric {
	var samples []float64
	t0 := now()
	for len(samples) < 3 || now().Sub(t0) < p.minFor {
		t := now()
		fn()
		samples = append(samples, float64(now().Sub(t).Nanoseconds())/float64(ops))
	}
	cal := calibrate()
	ns := median(samples) * calRefMS / ((p.calPrev + cal) / 2)
	p.calPrev = cal
	m := Metric{Name: name, Value: ns * perOp, Unit: unit, N: len(samples) * ops}
	p.out = append(p.out, m)
	return m
}

// Conversions from nanoseconds.
const (
	inNS = 1.0
	inUS = 1e-3
	inMS = 1e-6
)

// RunProbes runs every direct-call probe. dir receives the simserve
// probes' scratch state; tiny shortens each probe to a smoke test.
func RunProbes(tiny bool, dir string) ([]Metric, error) {
	p := &prober{minFor: probeFor, calPrev: calibrate()}
	if tiny {
		p.minFor = time.Millisecond
	}
	p.cpuProbes()
	p.memoryProbes()
	p.engineProbes()
	p.harnessProbes()
	p.clusterProbes()
	if err := p.simserveProbes(dir, tiny); err != nil {
		return nil, err
	}
	return p.out, nil
}

// cpuProbes: the gem5-style CPU model on three instruction mixes whose
// working sets fit the modelled L1, fit the modelled L2, and fit
// neither.
func (p *prober) cpuProbes() {
	const instr = 200_000
	for _, c := range []struct {
		name string
		mix  isa.Mix
		ws   int64
	}{
		{"cpu.ns_per_instr.l1", isa.DefaultMix, 16 << 10},
		{"cpu.ns_per_instr.l2", isa.MemHeavyMix, 512 << 10},
		{"cpu.ns_per_instr.mem", isa.ComputeMix, 8 << 20},
	} {
		m := cpu.New(cpu.Config{})
		w := isa.Work{Instr: instr, Mix: c.mix, WorkingSet: c.ws, IPCNative: 1.5, Seed: 7}
		p.run(c.name, "ns", inNS, instr, func() { m.Duration(w) })
	}
}

// memoryProbes: cachesim, dram, mem and interconnect called directly.
func (p *prober) memoryProbes() {
	const n = 100_000
	hier := cachesim.New(cachesim.L2, cachesim.New(cachesim.LLC, dram.New(dram.DDR4)))
	at := vclock.Time(0)
	p.run("cachesim.ns_per_access.hit", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			at = hier.AccessOne(at, mem.Read, mem.Addr(0x1000+(i%256)*64))
		}
	})
	next := mem.Addr(1 << 30)
	p.run("cachesim.ns_per_access.miss", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			at = hier.Access(at, mem.Read, next, 64)
			next += 64
		}
	})

	ctl := dram.New(dram.DDR4)
	addr := mem.Addr(0)
	p.run("dram.ns_per_access", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			at = ctl.Access(at, mem.Read, addr, 64)
			addr += 64
		}
	})
	p.out = append(p.out, Metric{Name: "dram.row_hit_pct", Value: 100 * ctl.RowHitRate(), Unit: "%", N: 1})

	m := mem.New(0x1000_0000)
	region := m.Alloc("probe", 1<<20)
	buf := make([]byte, 4096)
	p.run("mem.ns_per_kb", "ns", inNS, 2*256*4, func() {
		for off := uint64(0); off < 1<<20; off += 4096 {
			m.WriteAt(region.Base+mem.Addr(off), buf)
			m.ReadAt(region.Base+mem.Addr(off), buf)
		}
	})

	for _, c := range []struct {
		name string
		cfg  interconnect.Config
	}{
		{"interconnect.ns_per_dma4k.pcie", interconnect.PCIe400},
		{"interconnect.ns_per_dma4k.onchip", interconnect.OnChip4},
	} {
		fab := interconnect.New(c.cfg, cachesim.New(cachesim.LLC, dram.New(dram.DDR4)))
		dma := mem.Addr(0)
		const dmas = 2_000
		p.run(c.name, "ns", inNS, dmas, func() {
			for i := 0; i < dmas; i++ {
				at = fab.Access(at, mem.Read, dma, 4096)
				dma += 4096
			}
		})
	}
}

// engineProbes: the event queue, the coroutine handshake, an LPN built
// with lpnlang, and the simbricks ring.
func (p *prober) engineProbes() {
	const n = 50_000
	var q eventq.Queue
	nop := func(vclock.Time) {}
	for i := 0; i < 1024; i++ {
		q.At(vclock.Time(i), nop)
	}
	due := vclock.Time(1024)
	p.run("eventq.ns_per_event", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			q.At(due, nop)
			due++
			q.Step()
		}
	})

	var th *coro.Thread
	th = coro.NewThread(0, "probe", func() {
		for {
			th.Yield(coro.Request{Op: coro.OpPark})
		}
	})
	p.run("coro.ns_per_switch", "ns", inNS, 2*n/10, func() {
		for i := 0; i < n/10; i++ {
			th.Resume()
		}
	})
	th.Kill()

	// An 8-stage pipeline with a 4-credit loop from the last stage back
	// to the first: every token fires 8 transitions and the credit
	// place throttles admission.
	b := lpnlang.NewBuilder("probe", 1*vclock.GHz)
	in := b.Queue("in", 0)
	credits := b.Credits("credits", 4)
	var stages []*lpn.Transition
	from := in
	for s := 0; s < 8; s++ {
		var to *lpn.Place
		if s < 7 {
			to = b.Queue(fmt.Sprintf("q%d", s), 0)
		}
		var opts []lpnlang.StageOpt
		if s == 0 {
			opts = append(opts, lpnlang.AlsoConsume(credits, 1))
		}
		if s == 7 {
			opts = append(opts, lpnlang.AlsoProduce(credits, lpnlang.ReturnCredit))
		}
		stages = append(stages, b.Stage(fmt.Sprintf("s%d", s), from, to, b.Cycles(int64(2+s%3)), opts...))
		from = to
	}
	net := b.MustBuild()
	const tokens = 2_000
	horizon := vclock.Time(0)
	p.run("lpn.ns_per_firing", "ns", inNS, tokens*len(stages), func() {
		for i := 0; i < tokens; i++ {
			net.Inject(in, lpn.Tok(horizon))
		}
		horizon += vclock.Time(tokens * 64 * vclock.Nanosecond)
		net.Advance(horizon)
	})
	fired := int64(0)
	for _, s := range stages {
		fired += s.Fires()
	}
	p.out = append(p.out, Metric{Name: "lpn.firings_per_token", Value: float64(fired) / float64(stages[0].Fires()), Unit: "count", N: 1})

	ring := simbricks.NewRing(0)
	msg := make([]byte, 64)
	sink := 0
	p.run("simbricks.ns_per_msg", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			ring.Push(msg)
			ring.Pop(func(b []byte) { sink += len(b) })
		}
	})
}

// harnessProbes: the fixed costs around a run — the sweep executor, the
// spec's content address, the planner, the catalog lookup, system
// assembly and release.
func (p *prober) harnessProbes() {
	const jobs = 1_000
	noop := make([]func() struct{}, jobs)
	for i := range noop {
		noop[i] = func() struct{} { return struct{}{} }
	}
	x := sweep.New(1)
	p.run("sweep.us_per_job", "us", inUS, jobs, func() { sweep.Map(x, noop) })

	pool := sweep.NewPool(1, jobs)
	p.run("sweep.pool_us_per_job", "us", inUS, jobs, func() {
		var wg sync.WaitGroup
		wg.Add(jobs)
		for i := 0; i < jobs; i++ {
			if err := pool.TrySubmit(wg.Done); err != nil {
				wg.Done() // queue full: the job did not run
			}
		}
		wg.Wait()
	})
	pool.Close()

	spec := experiments.Spec{Bench: "vta-resnet18", Host: "nex", Accel: "dsim"}
	p.run("experiments.id_us", "us", inUS, 100, func() {
		for i := 0; i < 100; i++ {
			n, err := spec.Normalized()
			if err == nil {
				_, err = n.ID()
			}
			if err != nil {
				panic(err) // a catalogued bench always normalizes
			}
		}
	})

	var norm []experiments.Spec
	for _, s := range SweepForkSpecs(1) {
		n, err := s.Normalized()
		if err != nil {
			panic(err)
		}
		norm = append(norm, n)
	}
	p.run("experiments.plan_us", "us", inUS, 1, func() { experiments.PrefixGroups(norm) })

	p.run("workloads.byname_us", "us", inUS, 100, func() {
		for i := 0; i < 100; i++ {
			if _, err := workloads.ByName("vta-resnet18"); err != nil {
				panic(err)
			}
		}
	})

	bench, err := workloads.ByName("vta-resnet18")
	if err != nil {
		panic(err)
	}
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim, Model: bench.Model, Devices: bench.Devices, Seed: 42}
	var systems []*core.System
	p.run("core.build_ms", "ms", inMS, 8, func() {
		for i := 0; i < 8; i++ {
			systems = append(systems, core.Build(cfg))
		}
	})
	sys := core.Build(cfg)
	p.run("workloads.program_ms", "ms", inMS, 8, func() {
		for i := 0; i < 8; i++ {
			bench.Build(&sys.Ctx)
		}
	})
	sys.Release()
	t := now()
	for _, s := range systems {
		s.Release()
	}
	p.out = append(p.out, Metric{Name: "core.release_ms", Value: since(t) / float64(len(systems)), Unit: "ms", N: len(systems)})
}

// clusterProbes: placement and admission, called directly.
func (p *prober) clusterProbes() {
	const n = 10_000
	ring := cluster.NewRing([]string{"a:1", "b:1", "c:1"}, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = hashHex([]byte{byte(i)})
	}
	load := func(string) int { return 1 }
	p.run("cluster.ring_pick_ns", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			ring.BoundedPick(keys[i%len(keys)], 1.25, nil, load)
		}
	})
	adm := cluster.NewAdmission(cluster.AdmissionConfig{RatePerSec: 1e9})
	p.run("cluster.admit_ns", "ns", inNS, n, func() {
		for i := 0; i < n; i++ {
			adm.Allow("tenant0", 1)
		}
	})
}

// cannedRunner answers any spec at once with a fixed result, so a miss
// through a server built on it costs only the serving layer: submit,
// queue, marshal, publish, LRU (and the WAL when there is one).
func cannedRunner(experiments.Spec, int) (core.Result, error) {
	return core.Result{SimTime: vclock.Duration(vclock.Microsecond), Host: core.HostNEX, Accel: core.AccelDSim}, nil
}

// post sends one wait=true submit through a handler, no socket.
func post(h http.Handler, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("submit: status %d: %.200s", rec.Code, rec.Body.String())
	}
	return nil
}

// submitBodies builds n single-spec submit bodies with distinct seeds.
func submitBodies(n int, firstSeed uint64) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		body, err := json.Marshal(struct {
			Specs []experiments.Spec `json:"specs"`
			Wait  bool               `json:"wait"`
		}{[]experiments.Spec{{Bench: "npb-ep.8", Seed: firstSeed + uint64(i)}}, true})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// simserveProbes: the shard's handler called directly with an injected
// runner — a hit, a miss without and with the WAL, a journal replay,
// and the metrics page.
func (p *prober) simserveProbes(dir string, tiny bool) error {
	records := 1000
	if tiny {
		records = 50
	}
	state := filepath.Join(dir, fmt.Sprintf("probe-state-%d", os.Getpid()))
	defer func() { _ = os.RemoveAll(state) }() // scratch state

	// Every timed miss needs a never-seen spec; bodies are built
	// outside the timed region and consumed in order. Running out of
	// them fails the probes: a batch that stopped posting would still be
	// divided by its full operation count and read too cheap.
	bodies, err := submitBodies(40*records, 1)
	if err != nil {
		return err
	}
	nextBody := 0
	var probeErr error
	misses := func(h http.Handler, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				if nextBody == len(bodies) {
					probeErr = fmt.Errorf("simserve probes: all %d never-seen specs used up", len(bodies))
					return
				}
				if err := post(h, bodies[nextBody]); err != nil {
					probeErr = err
				}
				nextBody++
			}
		}
	}

	plain := simserve.New(simserve.Config{Workers: 1, CacheEntries: serveCacheEntries, Runner: cannedRunner})
	h := plain.Handler()
	if err := post(h, bodies[0]); err != nil {
		plain.Close()
		return err
	}
	p.run("simserve.hit_us", "us", inUS, 100, func() {
		for i := 0; i < 100; i++ {
			if err := post(h, bodies[0]); err != nil {
				probeErr = err
			}
		}
	})
	nextBody = 1
	miss := p.run("simserve.miss_overhead_us", "us", inUS, 50, misses(h, 50))
	p.run("simserve.metrics_us", "us", inUS, 20, func() {
		for i := 0; i < 20; i++ {
			scrape(h)
		}
	})
	plain.Close()

	durable, err := simserve.Open(simserve.Config{Workers: 1, CacheEntries: serveCacheEntries,
		StateDir: state, Runner: cannedRunner})
	if err != nil {
		return err
	}
	walMiss := p.run("simserve.wal_miss_us", "us", inUS, 50, misses(durable.Handler(), 50))
	p.out = append(p.out, Metric{Name: "simserve.wal_append_us", Value: walMiss.Value - miss.Value, Unit: "us", N: walMiss.N})
	// Top the journal up to a known record count, then time its replay.
	journaled := walMiss.N
	if journaled < records {
		misses(durable.Handler(), records-journaled)()
		journaled = records
	}
	durable.Close()
	if probeErr != nil {
		return probeErr
	}
	t := now()
	replayed, err := simserve.Open(simserve.Config{Workers: 1, CacheEntries: serveCacheEntries,
		StateDir: state, Runner: cannedRunner})
	if err != nil {
		return err
	}
	replayMS := since(t)
	replayed.Close()
	p.out = append(p.out, Metric{Name: "simserve.wal_replay_ms_per_krec", Value: replayMS * 1000 / float64(journaled), Unit: "ms", N: journaled})
	return nil
}
