package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Rounds is how many rounds a run is: each runs the workload once in a
// fresh process, and a run's value is the median of the per-round values
// (or a percentile of the rounds' pooled samples). Frozen with the bounds
// in bounds.md: another value changes the sample count, and so the
// spread, behind every gated number.
const Rounds = 3

// Metric is one named number: of one round when a child reports it, of
// a whole run (median over rounds, or a percentile of the pooled
// samples) once Aggregate has folded the rounds.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (passes, requests,
	// probe iterations; 1 for a count read once).
	N int `json:"n"`
	// Spread is the round-to-round spread, (max − min) / median of the
	// per-round values.
	Spread float64 `json:"spread"`
	// Exact marks a count that must repeat exactly between two runs of
	// the same commit and seed.
	Exact bool `json:"exact,omitempty"`
}

// RoundOpts parameterise one round of one workload in a child process.
type RoundOpts struct {
	Workload string
	Seed     uint64
	// Seconds is how long the round measures.
	Seconds float64
	// Traced adds, after the untraced measurement, the traced pass
	// (batch) or phase (serve_mix) — span file, self-time table, tracing
	// overhead — and the workload's substitution metrics (one engine,
	// attachment or setting swapped on the workload's own specs).
	Traced bool
	// OutDir receives trace files and scratch state (WAL directories).
	OutDir string
	// Tiny shrinks every count to smoke-test size (harness self-tests).
	Tiny bool
}

// Round is what a child process reports for one round.
type Round struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// ReadyUnixNano is the wall-clock instant set-up finished; the
	// parent subtracts the instant it started the child, so setup_s
	// covers process start, catalog, warm-up pass, cluster and WAL open.
	ReadyUnixNano int64 `json:"ready_unix_nano"`
	Attempted     int   `json:"attempted"`
	Failed        int   `json:"failed"`
	// Late counts correct answers that arrived after lateLimitMS. They
	// count in fail_share but are not wrong outputs, so they do not
	// fail the run: the reference box stalls for a third of a second
	// now and then.
	Late int `json:"late"`
	// Failures describes the first few failed or late operations.
	Failures []string `json:"failures,omitempty"`
	// Golden is the round's golden text (see digest.go).
	Golden  string   `json:"golden"`
	Metrics []Metric `json:"metrics"`
	// Series are raw samples the parent pools over rounds before taking
	// a percentile.
	Series map[string][]float64 `json:"series,omitempty"`
	// SelfTimes is the traced run's self-time table.
	SelfTimes []SelfRow `json:"self_times,omitempty"`
}

// maxFailureNotes bounds Round.Failures.
const maxFailureNotes = 8

// fail counts one failed operation.
func (r *Round) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

// note records a description of a failed or late operation.
func (r *Round) note(format string, args ...any) {
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a per-round metric.
func (r *Round) set(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, N: n})
}

// exact records a simulated statistic that must repeat exactly.
func (r *Round) exact(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, N: n, Exact: true})
}

// count records an exact count.
func (r *Round) count(name string, value int64) { r.exact(name, float64(value), "count", 1) }

// series appends raw samples for the parent to pool.
func (r *Round) series(name string, xs []float64) {
	if r.Series == nil {
		r.Series = map[string][]float64{}
	}
	r.Series[name] = append(r.Series[name], xs...)
}

// RunRound runs one round of a workload in this process. Process-wide
// settings of the experiments package are changed, so a process runs
// one round and exits.
func RunRound(o RoundOpts) (*Round, error) {
	if !KnownWorkload(o.Workload) {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", o.Workload, strings.Join(Workloads, ", "))
	}
	r := &Round{Workload: o.Workload, Seed: o.Seed}
	var err error
	if IsBatch(o.Workload) {
		err = runBatchRound(r, o)
	} else {
		err = runServeRound(r, o)
	}
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed+r.Late) / float64(r.Attempted)
	}
	r.set("fail_share", share, "ratio", r.Attempted)
	return r, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// memDelta reports allocation and collector activity between two
// runtime.MemStats readings.
type memDelta struct {
	AllocMB   float64
	GCCycles  int64
	GCPauseMS float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCCycles:  int64(after.NumGC) - int64(before.NumGC),
		GCPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
