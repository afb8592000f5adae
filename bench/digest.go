package bench

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"nexsim/internal/accel"
	"nexsim/internal/core"
	"nexsim/internal/nex"
)

// Golden digests. Every distinct spec a workload runs contributes one
// line "<spec id> <sha256 of its canonical result>"; the sorted lines
// are the workload's golden text for a seed, committed for seeds 1 and
// 2 under golden/. Regenerate with `simbench -update-golden -seed N`.

//go:embed golden
var goldenFS embed.FS

// canonicalResult is the part of a run's outcome that must never move
// unless a model changes on purpose: the simulated time and every
// simulated statistic. Wall times are excluded.
type canonicalResult struct {
	ID        string              `json:"id"`
	SimTimePS int64               `json:"sim_time_ps"`
	NEXStats  nex.Stats           `json:"nex_stats"`
	Devices   []accel.DeviceStats `json:"devices"`
}

// resultLine renders one golden line for the run of spec id.
func resultLine(id string, r core.Result) string {
	data, err := json.Marshal(canonicalResult{ID: id, SimTimePS: int64(r.SimTime),
		NEXStats: r.NEXStats, Devices: r.Devices})
	if err != nil {
		// Plain integers and strings: Marshal cannot fail.
		panic(err)
	}
	return id + " " + hashHex(data)
}

// bytesLine renders a golden line for a served result (serve_mix checks
// the response bytes themselves).
func bytesLine(id string, result []byte) string { return id + " " + hashHex(result) }

func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldenText is the canonical form of a set of lines: sorted,
// de-duplicated, newline-terminated.
func goldenText(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	var b strings.Builder
	for i, l := range s {
		if i > 0 && l == s[i-1] {
			continue
		}
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// digestOf is the one-line summary of a golden text.
func digestOf(text string) string { return hashHex([]byte(text)) }

// goldenName is the file name of a workload's golden text for a seed.
func goldenName(workload string, seed uint64) string {
	return fmt.Sprintf("%s.seed%d.sha256", workload, seed)
}

// CommittedGolden returns the committed golden text of a workload and
// seed; ok is false when none is committed (only seeds 1 and 2 are).
func CommittedGolden(workload string, seed uint64) (text string, ok bool) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if err != nil {
		return "", false
	}
	return string(data), true
}

// checkGolden compares a run's golden text against the committed one and
// returns one description per differing line (nil when identical).
func checkGolden(want, got string) []string {
	if want == got {
		return nil
	}
	index := func(text string) map[string]string {
		m := map[string]string{}
		for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
			id, sum, _ := strings.Cut(l, " ")
			m[id] = sum
		}
		return m
	}
	w, g := index(want), index(got)
	ids := make([]string, 0, len(w)+len(g))
	for id := range w {
		ids = append(ids, id)
	}
	for id := range g {
		if _, dup := w[id]; !dup {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var diffs []string
	for _, id := range ids {
		switch {
		case w[id] == g[id]:
		case g[id] == "":
			diffs = append(diffs, fmt.Sprintf("golden spec %.12s was not run", id))
		case w[id] == "":
			diffs = append(diffs, fmt.Sprintf("spec %.12s has no golden line", id))
		default:
			diffs = append(diffs, fmt.Sprintf("spec %.12s result digest %.12s, golden %.12s", id, g[id], w[id]))
		}
	}
	return diffs
}
