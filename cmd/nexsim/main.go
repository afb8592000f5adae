// Command nexsim runs one benchmark under one simulator combination and
// reports simulated time, wall-clock time and (optionally) the
// coarse-grained execution trace — the interactive workflow the paper
// advocates.
//
// Usage:
//
//	nexsim -list
//	nexsim -bench vta-resnet50 -host nex -accel dsim -trace
//	nexsim -bench jpeg-decode -host gem5 -accel rtl
//	nexsim -bench vta-resnet18 -seeds 8 -parallel 4
//
// -seeds N runs the benchmark under N consecutive seeds (a quick
// robustness sweep); -parallel fans those independent runs across
// workers via the internal/sweep executor.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/experiments"
	"nexsim/internal/sweep"
	"nexsim/internal/trace"
	"nexsim/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name (see -list)")
		hostName  = flag.String("host", "nex", "host engine: nex | gem5 | reference")
		accName   = flag.String("accel", "dsim", "accelerator engine: dsim | rtl")
		epoch     = flag.Duration("epoch", 0, "NEX epoch duration (e.g. 1us)")
		showTrace = flag.Bool("trace", false, "print the coarse-grained execution trace summary")
		chrome    = flag.String("chrome-trace", "", "write the trace as Chrome trace-event JSON to this file")
		list      = flag.Bool("list", false, "list benchmarks")
		seed      = flag.Uint64("seed", 42, "simulation seed (0 selects the default, 42)")
		seeds     = flag.Int("seeds", 1, "run this many consecutive seeds (starting at -seed)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"workers for the -seeds sweep (1 = serial)")
		intra = flag.Int("intra", 1,
			"intra-run workers (host + N-1 device steppers; results byte-identical)")
	)
	flag.Parse()

	if *list {
		for _, b := range workloads.Catalog() {
			model := string(b.Model)
			if model == "" {
				model = "cpu-only"
			}
			fmt.Printf("%-22s accel=%-9s devices=%d threads=%d\n",
				b.Name, model, b.Devices, b.Threads)
		}
		return
	}
	if *benchName == "" {
		fmt.Fprintln(os.Stderr, "nexsim: -bench is required (try -list)")
		os.Exit(2)
	}
	spec := experiments.Spec{Bench: *benchName, Host: *hostName, Accel: *accName,
		Seed: *seed, EpochNS: int64(*epoch / time.Nanosecond)}
	n, err := spec.Normalized()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A single run has one inter-run worker; only the -seeds sweep fans
	// across -parallel. The clamp keeps workers×intra within GOMAXPROCS.
	workers := 1
	if *seeds > 1 {
		workers = sweep.New(*parallel).Workers()
	}
	experiments.SetParallelism(workers)
	experiments.SetIntra(sweep.ClampIntra(workers, *intra, 0))

	if *seeds > 1 {
		// Seed sweep: independent runs, fanned across the sweep executor.
		specs := make([]experiments.Spec, *seeds)
		for i := range specs {
			specs[i] = n
			specs[i].Seed = n.Seed + uint64(i)
		}
		start := time.Now()
		res, err := experiments.RunSpecs(specs)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchmark:   %s\n", n.Bench)
		fmt.Printf("combination: %s+%s\n", n.Host, n.Accel)
		fmt.Printf("%-8s %14s\n", "seed", "simulated")
		for i, r := range res {
			fmt.Printf("%-8d %14v\n", specs[i].Seed, r.SimTime)
		}
		noun := "workers"
		if workers == 1 {
			noun = "worker"
		}
		fmt.Printf("(%d seeds on %d %s in %v)\n",
			*seeds, workers, noun, wall.Round(time.Microsecond))
		return
	}

	// The traced run attaches a recorder to the configuration the spec
	// lowers to, so it builds its system here rather than through RunSpec.
	b, cfg, err := experiments.Lower(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var rec *trace.Recorder
	if *showTrace || *chrome != "" {
		rec = trace.New()
		cfg.Trace = rec
	}
	sys := core.Build(cfg)
	r := sys.Run(b.Build(&sys.Ctx))

	fmt.Printf("benchmark:       %s\n", b.Name)
	fmt.Printf("combination:     %v+%v\n", r.Host, r.Accel)
	fmt.Printf("simulated time:  %v\n", r.SimTime)
	fmt.Printf("wall-clock time: %v\n", r.WallTime.Round(time.Microsecond))
	fmt.Printf("slowdown:        %.1fx\n", r.Slowdown())
	if r.Host == core.HostNEX {
		s := r.NEXStats
		fmt.Printf("nex: epochs=%d thread-epochs=%d traps=%d syncs=%d irqs=%d idle-jumps=%d\n",
			s.Epochs, s.ThreadEpochs, s.Traps, s.Syncs, s.IRQs, s.IdleJumps)
	}
	for i, d := range r.Devices {
		fmt.Printf("device %d: tasks=%d/%d busy=%v dma=%dB\n",
			i, d.TasksCompleted, d.TasksStarted, d.BusyTime, d.DMABytes)
	}
	if rec != nil && *showTrace {
		fmt.Println("--- coarse-grained trace (virtual time per component) ---")
		rec.Dump(os.Stdout)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing)\n", *chrome)
	}
}
