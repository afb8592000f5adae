// Command simbench is the repository's standing benchmark (see
// bench/README.md). One command runs the four workloads, prints every
// metric as "name value unit", checks every simulated result against
// the committed golden digests and exits non-zero on any mismatch.
//
//	simbench                          all four workloads, 3 interleaved rounds
//	simbench -trace 1                 the same plus a traced round and the probes
//	simbench -workload W -seed N -seconds S -trace 0|1
//	                                  one workload, ending with one JSON line
//	                                  (the form BENCHMARK.json's command uses)
//	simbench -update-golden -seed N   rewrite bench/golden for a seed
//	simbench -agree A1,A2:B1,B2       compare two sets of runs' results.json (bench/agree.sh)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"nexsim/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the JSON result line (default: all four)")
		seed     = flag.Uint64("seed", 1, "workload seed; golden digests are committed for 1 and 2")
		seconds  = flag.Float64("seconds", 30, "measuring time per workload, split over the rounds")
		traceOn  = flag.Int("trace", 0, "1: add the traced round and the per-layer probes")
		outDir   = flag.String("out", "bench/out", "directory for results.json, trace files and scratch state")
		update   = flag.Bool("update-golden", false, "rewrite bench/golden/<workload>.seed<N>.sha256 from this run")
		child    = flag.String("child", "", "internal: run one round (round) or the probes (probes) and print JSON")
		traced   = flag.Bool("traced", false, "internal: the child also runs the traced pass and the substitution metrics")
		agree    = flag.String("agree", "", "compare two sets of results.json files (A1,A2,...:B1,B2,...) against the bounds and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *agree != "" {
		a, b, ok := strings.Cut(*agree, ":")
		if !ok {
			fatal(fmt.Errorf("-agree wants two sets of files: A1,A2,...:B1,B2,..."))
		}
		ra, err := loadSet(a)
		fatal(err)
		rb, err := loadSet(b)
		fatal(err)
		if n := bench.Agree(os.Stdout, ra, rb); n > 0 {
			fmt.Printf("%d breaches\n", n)
			os.Exit(1)
		}
		return
	}
	if *child != "" {
		fatal(runChild(*child, *workload, *seed, *seconds, *traced, *outDir))
		return
	}
	names := bench.Workloads
	if *workload != "" {
		if !bench.KnownWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(bench.Workloads, ", ")))
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("need -seconds > 0"))
	}
	fatal(os.MkdirAll(*outDir, 0o755))
	p := parent{seed: *seed, outDir: *outDir}

	// Untraced rounds: end-to-end metrics only ever come from these.
	// Interleaving the workloads within a round spreads slow machine
	// drift over all of them.
	runs := map[string]*workloadRuns{}
	for _, w := range names {
		runs[w] = &workloadRuns{}
	}
	perRound := *seconds / bench.Rounds
	if *traceOn == 0 || *workload == "" {
		for r := 0; r < bench.Rounds; r++ {
			for _, w := range names {
				fatal(p.round(runs[w], w, perRound, false))
			}
		}
	}
	var probes []bench.Metric
	if *traceOn != 0 {
		for _, w := range names {
			tr := &workloadRuns{}
			fatal(p.round(tr, w, *seconds/2, true))
			if *workload != "" {
				// Single-workload traced run: the traced child's own
				// untraced measurement stands in for the rounds.
				runs[w] = tr
			} else {
				runs[w].traced = tr.rounds[0]
			}
		}
		var err error
		probes, err = p.probes()
		fatal(err)
	}

	ok := true
	var reports []*bench.Report
	for _, w := range names {
		wr := runs[w]
		want, _ := bench.CommittedGolden(w, *seed)
		if *update {
			fatal(os.WriteFile(filepath.Join("bench", "golden", bench.GoldenName(w, *seed)), []byte(wr.rounds[0].Golden), 0o644))
			want = wr.rounds[0].Golden
		}
		rep := bench.Aggregate(w, wr.rounds, wr.setupS, want)
		if wr.traced != nil {
			rep.MergeTraced(wr.traced)
		}
		rep.AddProbes(probes)
		bench.PrintTable(os.Stdout, rep)
		ok = ok && rep.Correct()
		reports = append(reports, rep)
	}
	fatal(bench.WriteResults(*outDir, *seed, reports))
	if *workload != "" {
		line, err := json.Marshal(reports[0].ResultLine(*traceOn != 0))
		fatal(err)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// loadSet reads a comma-separated list of results.json files.
func loadSet(files string) ([]*bench.Results, error) {
	var set []*bench.Results
	for _, f := range strings.Split(files, ",") {
		res, err := bench.LoadResults(f)
		if err != nil {
			return nil, err
		}
		set = append(set, res)
	}
	return set, nil
}

// runChild is the body of a child process.
func runChild(kind, workload string, seed uint64, seconds float64, traced bool, outDir string) error {
	var out any
	switch kind {
	case "round":
		r, err := bench.RunRound(bench.RoundOpts{Workload: workload, Seed: seed, Seconds: seconds,
			Traced: traced, OutDir: outDir})
		if err != nil {
			return err
		}
		out = r
	case "probes":
		ms, err := bench.RunProbes(false, outDir)
		if err != nil {
			return err
		}
		out = ms
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// workloadRuns collects one workload's rounds.
type workloadRuns struct {
	rounds []*bench.Round
	setupS []float64
	traced *bench.Round
}

// parent starts children: each round of each workload runs in a fresh
// process, because the experiments package keeps parallelism, intra and
// checkpoints as process-wide settings and the functional-track memo
// caches are process-wide too.
type parent struct {
	seed   uint64
	outDir string
}

// spawn runs this binary again as a child and decodes its JSON output.
func (p parent) spawn(out any, args ...string) (started time.Time, err error) {
	self, err := os.Executable()
	if err != nil {
		return started, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	started = bench.Now()
	data, err := cmd.Output()
	if err != nil {
		return started, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	return started, json.Unmarshal(data, out)
}

// round runs one round of a workload in a child.
func (p parent) round(wr *workloadRuns, w string, seconds float64, traced bool) error {
	args := []string{"-child", "round", "-workload", w, "-seed", fmt.Sprint(p.seed),
		"-seconds", fmt.Sprint(seconds), "-out", p.outDir}
	if traced {
		args = append(args, "-traced")
	}
	var r bench.Round
	started, err := p.spawn(&r, args...)
	if err != nil {
		return err
	}
	wr.rounds = append(wr.rounds, &r)
	wr.setupS = append(wr.setupS, float64(r.ReadyUnixNano-started.UnixNano())/1e9)
	return nil
}

// probes runs the direct-call probes in a child.
func (p parent) probes() ([]bench.Metric, error) {
	var ms []bench.Metric
	_, err := p.spawn(&ms, "-child", "probes", "-out", p.outDir)
	return ms, err
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
}
