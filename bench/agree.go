package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// informational are the per-workload end-to-end names agree.sh prints
// the difference of without a verdict: bounds.md records why none of
// them can hold a bound on the reference box.
var informational = []string{
	"op_tail_ms", "pass_p80_ms", "sim_mips", "p99_ms", "hit_p50_ms", "miss_p50_ms", "p99_hi_ms", "capacity_rps",
}

// failShareBound is fail_share's bound, which is absolute.
const failShareBound = 0.001

// LoadResults reads a results.json.
func LoadResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// medianOver returns the median of the named metric of one workload
// over the runs of a set that report it.
func medianOver(set []*Results, workload, name string) (float64, bool) {
	var xs []float64
	for _, res := range set {
		for _, rep := range res.Workloads {
			if m, ok := rep.Get(name); ok && rep.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
	}
	return median(xs), len(xs) > 0
}

// Agree compares two sets of runs of the same commit and seed the way
// the bounds were derived (bounds.md): per workload, the medians of
// every EndToEnd metric over each set must differ by no more than its
// bound (relative to the first set), the medians of fail_share by no
// more than failShareBound, and every exact metric (counts, nex_err_pct)
// and result digest must be the same in every run of both sets that
// reports it. It prints one line per comparison and returns the number
// of breaches.
func Agree(w io.Writer, a, b []*Results) int {
	breaches := 0
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		breaches++
		return "BREACH"
	}
	all := append(append([]*Results(nil), a...), b...)
	for _, res := range all {
		if res.Seed != all[0].Seed {
			fmt.Fprintf(w, "seeds differ (%d, %d): nothing to compare\n", all[0].Seed, res.Seed)
			return 1
		}
	}
	fmt.Fprintf(w, "medians of %d and %d runs, seed %d\n", len(a), len(b), all[0].Seed)
	for _, workload := range Workloads {
		// Digests and exact metrics: the first run that reports one sets
		// the value every other run must repeat.
		digest := ""
		exact := map[string]float64{}
		for i, res := range all {
			for _, rep := range res.Workloads {
				if rep.Workload != workload {
					continue
				}
				if digest == "" {
					digest = rep.Digest
				}
				if rep.Digest != digest {
					fmt.Fprintf(w, "%-16s %-26s run %d has %.16s, run 0 %.16s  %s\n", workload, "digest", i, rep.Digest, digest, verdict(false))
				}
				for _, m := range rep.Metrics {
					if !m.Exact {
						continue
					}
					if first, seen := exact[m.Name]; !seen {
						exact[m.Name] = m.Value
					} else if m.Value != first {
						fmt.Fprintf(w, "%-16s %-26s run %d has %s, an earlier run %s  must be identical  %s\n", workload, m.Name,
							i, formatValue(m.Value), formatValue(first), verdict(false))
					}
				}
			}
		}
		if digest == "" {
			continue // the runs did not include this workload
		}
		fmt.Fprintf(w, "%-16s %-26s %-16.16s and %d exact metrics identical in every run that reports them\n", workload, "digest", digest, len(exact))
		for _, d := range EndToEnd {
			ma, oka := medianOver(a, workload, d.Name)
			mb, okb := medianOver(b, workload, d.Name)
			rel := math.Inf(1)
			if oka && okb && ma != 0 {
				rel = math.Abs(mb-ma) / math.Abs(ma)
			}
			fmt.Fprintf(w, "%-16s %-26s %16s %16s  diff %5.1f%% of bound %4.0f%%  %s\n", workload, d.Name,
				formatValue(ma), formatValue(mb), 100*rel, 100*d.Bound, verdict(rel <= d.Bound))
		}
		for _, name := range informational {
			ma, oka := medianOver(a, workload, name)
			mb, okb := medianOver(b, workload, name)
			if oka && okb && ma != 0 {
				fmt.Fprintf(w, "%-16s %-26s %16s %16s  diff %5.1f%% (not gated)\n", workload, name,
					formatValue(ma), formatValue(mb), 100*math.Abs(mb-ma)/math.Abs(ma))
			}
		}
		fa, _ := medianOver(a, workload, "fail_share")
		fb, _ := medianOver(b, workload, "fail_share")
		fmt.Fprintf(w, "%-16s %-26s %16s %16s  abs bound %.3f  %s\n", workload, "fail_share",
			formatValue(fa), formatValue(fb), failShareBound, verdict(math.Abs(fb-fa) <= failShareBound))
	}
	return breaches
}
