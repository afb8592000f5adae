package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Def describes one metric of the benchmark's contract.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression
	// (bounds.md records the spread measurement it came from); 0 for
	// per-layer metrics, which have none.
	Bound float64
}

// EndToEnd are the metrics BENCHMARK.json gates. Each is defined on
// every workload; README.md maps them to the per-workload names (op_ms
// is pass_ms on the batch workloads and p50_ms on serve_mix).
var EndToEnd = []Def{
	{"op_ms", "ms", "lower", 0.25},
	{"sim_us_per_s", "us/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
}

// Report is the outcome of one workload over all its rounds.
type Report struct {
	Workload  string    `json:"workload"`
	Rounds    int       `json:"rounds"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Late      int       `json:"late"` // correct answers later than the latency limit
	Failures  []string  `json:"failures,omitempty"`
	Digest    string    `json:"digest"` // sha256 of the golden text
	Golden    string    `json:"golden"` // "match", "mismatch" or "none committed for this seed"
	Metrics   []Metric  `json:"metrics"`
	SelfTimes []SelfRow `json:"self_times,omitempty"`
}

// Correct reports whether every operation succeeded and every digest
// matched.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Golden != "mismatch" }

// Get returns the named metric.
func (r *Report) Get(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// pooled are the metrics taken as a percentile of the samples of all
// rounds together rather than as the median of per-round values: a
// tail percentile needs the pooled count to have samples beyond it.
var pooled = []struct {
	name, series string
	pct          float64
}{
	{"pass_ms", "pass_ms", 50},
	{"p50_ms", "lo_ms", 50},
	{"p99_ms", "lo_ms", 99},
	{"hit_p50_ms", "hit_ms", 50},
	{"miss_p50_ms", "miss_ms", 50},
	{"p99_hi_ms", "hi_ms", 99},
	{"bench.gen_late_p50_ms", "late_ms", 50},
	{"bench.gen_late_p99_ms", "late_ms", 99},
}

// Aggregate folds the rounds of one workload into its report. setupS
// are the rounds' set-up times as the parent measured them (child start
// to the child's ready instant). want is the committed golden text for
// the seed ("" when none is).
func Aggregate(workload string, rounds []*Round, setupS []float64, want string) *Report {
	rep := &Report{Workload: workload, Rounds: len(rounds)}
	byName := map[string][]Metric{}
	series := map[string][]float64{}
	for i, rd := range rounds {
		rep.Attempted += rd.Attempted
		rep.Failed += rd.Failed
		rep.Late += rd.Late
		for _, f := range rd.Failures {
			rep.Failures = append(rep.Failures, fmt.Sprintf("round %d: %s", i, f))
		}
		for _, m := range rd.Metrics {
			byName[m.Name] = append(byName[m.Name], m)
		}
		for _, name := range sortedKeys(rd.Series) {
			series[name] = append(series[name], rd.Series[name]...)
		}
		if len(rd.SelfTimes) > 0 {
			rep.SelfTimes = rd.SelfTimes
		}
		if rd.Golden != rounds[0].Golden {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("round %d: results differ from round 0", i))
		}
	}

	for _, n := range sortedKeys(byName) {
		ms := byName[n]
		vals := make([]float64, len(ms))
		total := 0
		for i, m := range ms {
			vals[i] = m.Value
			total += m.N
		}
		out := Metric{Name: n, Value: median(vals), Unit: ms[0].Unit, N: total, Spread: spread(vals), Exact: ms[0].Exact}
		if out.Exact {
			out.N = ms[0].N
			if out.Spread != 0 {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("count %s differs between rounds: %v", n, vals))
			}
		}
		rep.Metrics = append(rep.Metrics, out)
	}
	for _, p := range pooled {
		if xs := series[p.series]; len(xs) > 0 {
			rep.put(Metric{Name: p.name, Value: quantile(xs, p.pct), Unit: "ms", N: len(xs)})
		}
	}
	if len(setupS) > 0 {
		rep.put(Metric{Name: "setup_s", Value: median(setupS), Unit: "s", N: len(setupS), Spread: spread(setupS)})
	}
	// The contract's workload-independent name for the median of the
	// workload's operation: a pass of a batch workload, a request at
	// rate_lo of serve_mix. op_tail_ms is its tail, the highest
	// percentile the pooled sample count supports (bench.op_tail_pct
	// says which). pass_p80_ms follows the same rule with p80 as its
	// ceiling: at the committed run length gem5rtl_tables and sweep_fork
	// pool fewer than the 50 passes p80 needs, and bench.pass_tail_pct
	// says which percentile the value is.
	op, samples := "pass_ms", series["pass_ms"]
	if !IsBatch(workload) {
		op, samples = "p50_ms", series["lo_ms"]
	}
	if m, ok := rep.Get(op); ok {
		m.Name = "op_ms"
		rep.put(m)
	}
	if n := len(samples); n > 0 {
		pct := tailPercentile(n)
		rep.put(Metric{Name: "op_tail_ms", Value: quantile(samples, pct), Unit: "ms", N: n})
		rep.put(Metric{Name: "bench.op_tail_pct", Value: pct, Unit: "%", N: n})
		if IsBatch(workload) {
			pct = math.Min(pct, 80)
			rep.put(Metric{Name: "pass_p80_ms", Value: quantile(samples, pct), Unit: "ms", N: n})
			rep.put(Metric{Name: "bench.pass_tail_pct", Value: pct, Unit: "%", N: n})
		}
	}
	sortMetrics(rep.Metrics)

	if len(rounds) > 0 {
		rep.Digest = digestOf(rounds[0].Golden)
		diffs := checkGolden(want, rounds[0].Golden)
		switch {
		case want == "":
			rep.Golden = "none committed for this seed"
		case len(diffs) == 0:
			rep.Golden = "match"
		default:
			rep.Golden = "mismatch"
			rep.Failed += len(diffs)
			for _, d := range diffs[:min(len(diffs), 4*maxFailureNotes)] {
				rep.Failures = append(rep.Failures, "golden: "+d)
			}
		}
	}
	return rep
}

// put replaces or appends a metric, keeping the per-round spread of a
// replaced value when the replacement has none.
func (r *Report) put(m Metric) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == m.Name {
			if m.Spread == 0 {
				m.Spread = r.Metrics[i].Spread
			}
			r.Metrics[i] = m
			return
		}
	}
	r.Metrics = append(r.Metrics, m)
}

// PrintTable writes a report as "name value unit n spread" lines.
func PrintTable(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "== %s  rounds=%d attempted=%d failed=%d late=%d golden=%s digest=%.16s\n",
		rep.Workload, rep.Rounds, rep.Attempted, rep.Failed, rep.Late, rep.Golden, rep.Digest)
	for _, m := range rep.Metrics {
		exact := ""
		if m.Exact {
			exact = " exact"
		}
		fmt.Fprintf(w, "%-34s %16s %-9s n=%-6d spread=%.1f%%%s\n",
			m.Name, formatValue(m.Value), m.Unit, m.N, 100*m.Spread, exact)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "NOTE %s\n", f)
	}
	if len(rep.SelfTimes) > 0 {
		fmt.Fprintf(w, "-- %s traced run: self time per span name (duration minus children)\n", rep.Workload)
		fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "children_ms", "self_ms")
		for _, s := range rep.SelfTimes {
			fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.ChildMS, s.SelfMS)
		}
	}
}

// formatValue prints integers as integers and everything else with
// enough digits to diff.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// Results is bench/out/results.json: one object per run of the
// command, so two runs can be diffed mechanically.
type Results struct {
	Commit    string    `json:"commit"`
	Seed      uint64    `json:"seed"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	CalRefMS  float64   `json:"cal_ref_ms"`
	Workloads []*Report `json:"workloads"`
}

// WriteResults writes results.json under dir.
func WriteResults(dir string, seed uint64, reports []*Report) error {
	res := Results{Commit: commitID(), Seed: seed, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), CalRefMS: calRefMS, Workloads: reports}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}

// commitID names the commit being measured: the checked-out HEAD when
// the tree is a git checkout, "unknown" otherwise (the benchmark also
// runs from exported trees that are not repositories).
func commitID() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(data))
	}
	return ref
}
