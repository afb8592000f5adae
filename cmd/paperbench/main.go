// Command paperbench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints a text table with the same
// rows/series the paper reports.
//
// Usage:
//
//	paperbench -list
//	paperbench -exp fig3
//	paperbench -exp all
//	paperbench -exp all -parallel 8 -json results.json
//
// -parallel N fans each experiment's independent simulation runs across
// N workers (default GOMAXPROCS; 1 reproduces the historical serial
// harness). -intra N additionally runs each simulation's accelerator
// engines on up to N-1 stepper goroutines alongside the host engine
// (conservative parallel co-simulation, DESIGN.md §10). Tables are
// byte-identical at any worker or intra count: experiments enumerate
// jobs first, render from order-preserved results, and the intra
// schedule is conservative (observation implies quiesce). The intra
// request is clamped so parallel×intra stays within GOMAXPROCS.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nexsim/internal/experiments"
	"nexsim/internal/sweep"
)

// jsonEntry is one experiment's record in the -json report. Parallel,
// Intra and GoVersion record the run environment: wall times are only
// comparable across reports taken at the same worker/intra counts and
// toolchain. HostWallMS and DeviceWallMS are the experiments.WallSplit
// the experiment's Run returned: the summed wall time of every
// simulation it executed — all 20 experiments run through the one
// executor, and a wall-time experiment's warm-up and second measured run
// count too, so at -parallel 1 it approaches WallMS — and the time
// accelerator stepper lanes spent advancing concurrently with those runs
// (0 at -intra 1).
type jsonEntry struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	WallMS       float64 `json:"wall_ms"`
	Headline     string  `json:"headline"`
	Parallel     int     `json:"parallel"`
	Intra        int     `json:"intra"`
	HostWallMS   float64 `json:"host_wall_ms"`
	DeviceWallMS float64 `json:"device_wall_ms"`
	GoVersion    string  `json:"go_version"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		list     = flag.Bool("list", false, "list available experiments")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"workers for each experiment's simulation jobs (1 = serial)")
		jsonPath = flag.String("json", "",
			"write per-experiment wall time and headline metrics to this file as a JSON array")
		intra = flag.Int("intra", 1,
			"intra-run workers per simulation (host + N-1 device steppers; 1 = serial schedule)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	experiments.SetParallelism(*parallel)
	effIntra := sweep.ClampIntra(*parallel, *intra, 0)
	if effIntra != *intra {
		fmt.Fprintf(os.Stderr, "paperbench: clamped -intra %d to %d (-parallel %d on %d procs)\n",
			*intra, effIntra, *parallel, runtime.GOMAXPROCS(0))
	}
	experiments.SetIntra(effIntra)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var report []jsonEntry
	run := func(e experiments.Experiment) {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		// Render to a buffer so the -json report can extract the headline
		// (the last non-empty line, where every experiment prints its
		// summary statistic or final row).
		var buf bytes.Buffer
		start := time.Now()
		split, err := e.Run(&buf)
		wall := time.Since(start)
		if _, werr := os.Stdout.Write(buf.Bytes()); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, wall.Round(time.Millisecond))
		report = append(report, jsonEntry{
			ID:           e.ID,
			Title:        e.Title,
			WallMS:       float64(wall) / float64(time.Millisecond),
			Headline:     lastLine(buf.String()),
			Parallel:     *parallel,
			Intra:        effIntra,
			HostWallMS:   float64(split.Host) / float64(time.Millisecond),
			DeviceWallMS: float64(split.Device) / float64(time.Millisecond),
			GoVersion:    runtime.Version(),
		})
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run(e)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// lastLine returns the last non-empty line of an experiment's output.
func lastLine(s string) string {
	lines := strings.Split(s, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if t := strings.TrimSpace(lines[i]); t != "" {
			return t
		}
	}
	return ""
}
