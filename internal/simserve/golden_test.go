package simserve

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// sortedLines puts a /metrics page into the golden files' order: the
// registry renders in registration order, the goldens are order-free.
func sortedLines(page []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(page), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsPageGolden pins the /metrics surface of a fresh server
// against the page the hand-written renderer produced before the
// registry replaced it (testdata/metrics_fresh.golden, generated at that
// commit): a dropped, renamed or relabelled metric fails here.
func TestMetricsPageGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Backlog: 8, CacheEntries: 16, ShardID: "golden"})
	_, page := get(t, ts, "/metrics")
	want, err := os.ReadFile("testdata/metrics_fresh.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedLines(page); got != string(want) {
		t.Fatalf("fresh /metrics page (sorted) differs from the golden:\n%s\nwant:\n%s", got, want)
	}
}
