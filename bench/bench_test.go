package bench

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The percentile rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {24, 50}, {25, 60}, {33, 60}, {35, 70}, {40, 75}, {50, 80}, {51, 80}, {99, 80},
		{100, 90}, {200, 95}, {999, 95}, {1000, 99}, {7200, 99}, {9999, 99}, {10800, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

// The pass tail obeys the rule too: pass_p80_ms is p80 only when the
// pooled passes leave ten beyond it, and a lower percentile otherwise.
func TestPassTailFollowsPercentileRule(t *testing.T) {
	for _, c := range []struct {
		passes  int
		wantPct float64
	}{{33, 60}, {48, 75}, {51, 80}, {135, 80}} {
		xs := make([]float64, c.passes)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rd := &Round{Series: map[string][]float64{"pass_ms": xs}}
		rep := Aggregate(Gem5RTLTables, []*Round{rd}, nil, "")
		pct, _ := rep.Get("bench.pass_tail_pct")
		tail, _ := rep.Get("pass_p80_ms")
		if pct.Value != c.wantPct || tail.Value != quantile(xs, c.wantPct) {
			t.Errorf("%d passes: pass_p80_ms = %v at p%v, want p%v", c.passes, tail.Value, pct.Value, c.wantPct)
		}
		if beyond(c.passes, pct.Value) < minBeyond {
			t.Errorf("%d passes: only %d samples beyond p%v", c.passes, beyond(c.passes, pct.Value), pct.Value)
		}
	}
}

// Work is fixed by count: the pass count follows from the run length and
// the frozen reference rates alone.
func TestPassCountIsFixedByRunLength(t *testing.T) {
	for _, c := range []struct {
		workload string
		seconds  float64
		want     int
	}{{Gem5RTLTables, 9, 11}, {NexDSimTables, 9, 44}, {SweepFork, 9, 16}, {Gem5RTLTables, 0.1, minPasses}} {
		if got := passesFor(c.workload, c.seconds); got != c.want {
			t.Errorf("passesFor(%s, %v) = %d, want %d", c.workload, c.seconds, got, c.want)
		}
	}
}

// agree.sh compares medians over two sets of runs: one slow run in a set
// does not breach, a shifted median does, and a count that differs in
// any run does.
func TestAgreeComparesMediansOfSets(t *testing.T) {
	run := func(opMS, instr float64) *Results {
		rep := &Report{Workload: Gem5RTLTables, Digest: "d", Metrics: []Metric{
			{Name: "cpu.instructions", Value: instr, Unit: "count", Exact: true}}}
		for _, d := range EndToEnd {
			rep.Metrics = append(rep.Metrics, Metric{Name: d.Name, Value: opMS, Unit: d.Unit})
		}
		return &Results{Seed: 1, Workloads: []*Report{rep}}
	}
	steady := []*Results{run(100, 7), run(101, 7), run(99, 7)}
	oneSlow := []*Results{run(100, 7), run(160, 7), run(102, 7)}
	if n := Agree(io.Discard, steady, oneSlow); n != 0 {
		t.Errorf("one slow run among three breached %d times", n)
	}
	shifted := []*Results{run(140, 7), run(141, 7), run(139, 7)}
	if n := Agree(io.Discard, steady, shifted); n != len(EndToEnd) {
		t.Errorf("a 40%% shift of every median breached %d times, want %d", n, len(EndToEnd))
	}
	if n := Agree(io.Discard, steady, []*Results{run(100, 7), run(100, 8), run(100, 7)}); n != 1 {
		t.Errorf("a count that differs in one run breached %d times, want 1", n)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := quantile(xs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// The normalisation arithmetic: a sample taken while the kernel ran
// twice as slow as on the reference box halves, and the correction is
// clamped.
func TestNormalise(t *testing.T) {
	for _, c := range []struct{ raw, cal, want float64 }{
		{100, calRefMS, 100},
		{100, 2 * calRefMS, 100 / calClamp}, // 0.5 clamps to 1/1.5
		{100, 1.25 * calRefMS, 80},
		{100, calRefMS / 1.25, 125},
		{100, calRefMS / 10, 100 * calClamp},
		{100, 0, 100},
	} {
		if got := normalise(c.raw, c.cal); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("normalise(%v, %v) = %v, want %v", c.raw, c.cal, got, c.want)
		}
	}
}

// The open-loop schedule is a pure function of the seed.
func TestOpenScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := OpenSchedule(7, "lo", rateLo, 2*time.Second, 0)
	b := OpenSchedule(7, "lo", rateLo, 2*time.Second, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if len(a) != 600 {
		t.Fatalf("%d arrivals, want 600", len(a))
	}
	if reflect.DeepEqual(a, OpenSchedule(8, "lo", rateLo, 2*time.Second, 0)) {
		t.Fatal("different seeds, same schedule")
	}
	counts := make([]int, numClasses)
	cold := map[int]bool{}
	for i, arr := range a {
		if want := time.Duration(float64(i) * float64(time.Second) / rateLo); arr.Due != want {
			t.Fatalf("arrival %d due %v, want %v", i, arr.Due, want)
		}
		counts[arr.Class]++
		if arr.Class == classCold {
			if cold[arr.Key] {
				t.Fatalf("cold key %d repeats", arr.Key)
			}
			cold[arr.Key] = true
		}
	}
	if counts[classHot] < 360 || counts[classHot] > 480 || counts[classCold] < 50 || counts[classWarm] < 50 {
		t.Errorf("class counts %v are far from the 70/15/15 mix", counts)
	}
}

// Latency is charged from the due time: when the server stalls, the
// requests that were due during the stall pay for it, although each of
// them is served at once when its turn comes (the coordinated-omission
// case).
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const (
		n     = 30
		gap   = 2 * time.Millisecond
		stall = 40 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	served := make([]float64, n) // service time as the server saw it
	lat, late := OpenLoop(due, 1, func(i int) {
		t0 := now()
		if i == 0 {
			pause(stall)
		}
		served[i] = since(t0)
	})
	if lat[0] < ms(stall) {
		t.Fatalf("stalled request took %.1f ms, want >= %v", lat[0], stall)
	}
	// Request 5 was due 10 ms in, so it waited at least 30 ms behind the
	// stall even though its own service was instant.
	if want := ms(stall - 5*gap); lat[5] < want {
		t.Errorf("request due during the stall charged %.2f ms, want >= %.0f", lat[5], want)
	}
	if served[5] > 5 {
		t.Errorf("stub served request 5 in %.2f ms; the test needs it instant", served[5])
	}
	if !math.IsNaN(late[5]) {
		t.Errorf("request 5 started late because the client was busy; its generator lateness must be NaN, got %v", late[5])
	}
	// Once the backlog is drained the generator is early again and
	// latency falls back to the service time.
	if lat[n-1] > ms(stall)/2 {
		t.Errorf("last request still charged %.2f ms after the backlog drained", lat[n-1])
	}
	if math.IsNaN(late[n-1]) || late[n-1] > 5 {
		t.Errorf("generator lateness of the last request = %v ms", late[n-1])
	}
}

func TestClosedLoopStopsAtDeadlineOrCount(t *testing.T) {
	lat, _ := ClosedLoop(10, 2, time.Hour, func(int) {})
	if len(lat) != 10 {
		t.Fatalf("sent %d of 10", len(lat))
	}
	lat, wall := ClosedLoop(1<<20, 2, 20*time.Millisecond, func(int) { pause(time.Millisecond) })
	if len(lat) == 0 || len(lat) > 200 || wall < 20 {
		t.Fatalf("deadline run sent %d in %.1f ms", len(lat), wall)
	}
}

// A golden file that does not match the run makes the run fail, and the
// report names the spec.
func TestCorruptedGoldenFails(t *testing.T) {
	r, err := RunRound(RoundOpts{Workload: NexDSimTables, Seed: 1, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep := Aggregate(NexDSimTables, []*Round{r}, nil, r.Golden); !rep.Correct() || rep.Golden != "match" {
		t.Fatalf("matching golden rejected: %+v", rep.Failures)
	}
	if rep := Aggregate(NexDSimTables, []*Round{r}, nil, ""); !rep.Correct() {
		t.Fatalf("a seed without a committed golden must not fail: %+v", rep.Failures)
	}
	corrupt := []byte(r.Golden)
	last := len(corrupt) - 2 // a digit of the last digest
	if corrupt[last] == '0' {
		corrupt[last] = '1'
	} else {
		corrupt[last] = '0'
	}
	rep := Aggregate(NexDSimTables, []*Round{r}, nil, string(corrupt))
	if rep.Correct() || rep.Golden != "mismatch" || rep.Failed == 0 {
		t.Fatalf("corrupted golden accepted: golden=%s failed=%d", rep.Golden, rep.Failed)
	}
	if !strings.Contains(strings.Join(rep.Failures, "\n"), "golden: spec ") {
		t.Errorf("failure does not name the spec: %v", rep.Failures)
	}
	if rep.ResultLine(false).Correct {
		t.Error("result line says correct")
	}
	missing := r.Golden[strings.Index(r.Golden, "\n")+1:]
	if rep := Aggregate(NexDSimTables, []*Round{r}, nil, missing); rep.Correct() {
		t.Error("a run with a spec the golden does not know was accepted")
	}
}

// Every workload, at tiny counts, through the same code path as a full
// run: untraced measurement, traced pass or phase, substitution probes,
// aggregation and the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	probes, err := RunProbes(true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			r, err := RunRound(RoundOpts{Workload: w, Seed: 2, Seconds: 0.1, Traced: true, OutDir: dir, Tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d failed %d: %v", r.Attempted, r.Failed, r.Failures)
			}
			if r.ReadyUnixNano == 0 || r.Golden == "" || len(r.SelfTimes) == 0 {
				t.Fatalf("round is missing its ready instant, golden text or self-time table")
			}
			if _, err := os.Stat(dir + "/trace_" + w + ".json"); err != nil {
				t.Fatalf("no span file: %v", err)
			}
			rep := Aggregate(w, []*Round{r}, []float64{0.5}, "")
			rep.AddProbes(probes)
			if !rep.Correct() {
				t.Fatalf("report not correct: %v", rep.Failures)
			}
			line := rep.ResultLine(false)
			for _, d := range EndToEnd {
				if v := line.Metrics[d.Name]; v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v on %s; it must be positive on every workload", d.Name, v.Value, w)
				}
			}
			if got := len(rep.ResultLine(true).Metrics); got != len(PerLayer) {
				t.Errorf("traced result line has %d metrics, want %d", got, len(PerLayer))
			}
			instr, _ := rep.Get("cpu.instructions")
			if (w == Gem5RTLTables) != (instr.Value > 0) {
				t.Errorf("cpu.instructions = %v on %s", instr.Value, w)
			}
			hits, _ := rep.Get("checkpoint.store_hits")
			if (w == SweepFork) != (hits.Value > 0) {
				t.Errorf("checkpoint.store_hits = %v on %s", hits.Value, w)
			}
		})
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the code
// defines.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, code has %v", names, Workloads)
	}
	if len(file.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(file.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		if got := file.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, got, d)
		}
	}
	if len(file.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(file.PerLayer), len(PerLayer))
	}
	seen := map[string]bool{}
	for i, d := range PerLayer {
		if got := file.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}
