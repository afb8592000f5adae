package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

// testModule loads (once) the repository module this test runs inside.
func testModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			modErr = err
			return
		}
		root := wd
		for {
			if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
				break
			}
			parent := filepath.Dir(root)
			if parent == root {
				modErr = fmt.Errorf("no go.mod above %s", wd)
				return
			}
			root = parent
		}
		mod, modErr = LoadModule(root)
	})
	if modErr != nil {
		t.Fatalf("loading module: %v", modErr)
	}
	return mod
}

// wantMarker matches golden-finding expectations embedded in fixtures.
var wantMarker = regexp.MustCompile(`// WANT ([a-z-]+)`)

// expectedFindings scans fixture files for // WANT <checker> markers.
func expectedFindings(t *testing.T, filenames []string, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for _, fn := range filenames {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantMarker.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), i+1, m[1])] = true
			}
		}
	}
	return want
}

func findingKeys(fs []Finding) map[string]bool {
	got := map[string]bool{}
	for _, f := range fs {
		got[fmt.Sprintf("%s:%d %s", f.File, f.Line, f.Checker)] = true
	}
	return got
}

func diffSets(t *testing.T, want, got map[string]bool) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if !want[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case want[k] && !got[k]:
			t.Errorf("missing finding: %s", k)
		case !want[k] && got[k]:
			t.Errorf("unexpected finding: %s", k)
		}
	}
}

// TestGoldenFindings runs each checker over its fixture package (one
// positive file full of WANT markers, one marker-free negative file) and
// asserts the reported findings match the markers exactly.
func TestGoldenFindings(t *testing.T) {
	fixtures := map[string]string{
		"nondettime":       "nondet-time",
		"nondetrand":       "nondet-rand",
		"maporder":         "map-order",
		"straygoroutine":   "stray-goroutine",
		"uncheckederror":   "unchecked-error",
		"unknowndirective": "unknown-directive",
		"hotpathalloc":     "hotpath-alloc",
		"testonlyexport":   "test-only-export",
	}
	m := testModule(t)
	for dir, checker := range fixtures {
		dir, checker := dir, checker
		t.Run(checker, func(t *testing.T) {
			c := checkerByID(checker)
			if c == nil {
				t.Fatalf("unknown checker %q", checker)
			}
			fixDir := filepath.Join(m.Root, "internal/analysis/testdata/src", dir)
			pkg, err := m.load("fixture/"+dir, fixDir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			want := expectedFindings(t, pkg.Filenames, m.Root)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no WANT markers", dir)
			}
			got := findingKeys(AnalyzeScope(m, []*Package{pkg}, []*Checker{c}))
			diffSets(t, want, got)

			// The negative file must contribute nothing.
			for k := range got {
				if strings.Contains(k, "/neg.go") {
					t.Errorf("negative fixture file raised a finding: %s", k)
				}
			}
		})
	}
}

// TestSuppression checks both //simlint:allow forms — trailing on the
// offending line and alone on the line above — and that unannotated
// sites in the same file still fire.
func TestSuppression(t *testing.T) {
	m := testModule(t)
	fixDir := filepath.Join(m.Root, "internal/analysis/testdata/src/suppress")
	pkg, err := m.load("fixture/suppress", fixDir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	checkers := []*Checker{checkerByID("nondet-time"), checkerByID("nondet-rand")}
	got := AnalyzeScope(m, []*Package{pkg}, checkers)
	want := expectedFindings(t, pkg.Filenames, m.Root)
	diffSets(t, want, findingKeys(got))
	if len(got) != 1 {
		t.Errorf("got %d findings, want exactly the one unsuppressed site: %v", len(got), got)
	}
}

// TestCommittedTreeClean asserts the repository itself is finding-free:
// every determinism rule the suite enforces holds on the committed code.
// It runs the suite the way simlint does, once over every package.
func TestCommittedTreeClean(t *testing.T) {
	m := testModule(t)
	for _, f := range AnalyzeScope(m, m.Pkgs, nil) {
		t.Errorf("committed tree has finding: %s", f)
	}
}

// TestAllowlistScope locks the whole-file allowlist down to exactly the
// intended sites. Growing it is a deliberate act (update this test);
// the engines (internal/core, internal/nex, internal/accel, ...) must
// never appear here.
func TestAllowlistScope(t *testing.T) {
	want := map[string][]string{
		"nondet-time": {
			"cmd/paperbench/",
			"cmd/nexsim/",
			"examples/",
			"internal/experiments/speed.go",
			"internal/simserve/",
			"internal/cluster/",
		},
		"nondet-rand": {
			"internal/simserve/",
			"internal/cluster/",
		},
		"stray-goroutine": {
			"internal/sweep/",
			"internal/simserve/",
			"internal/cluster/",
			"internal/jobapi/daemon.go",
		},
		"test-only-export": {
			"internal/accel/acceltest/",
		},
	}
	if len(defaultAllow) != len(want) {
		t.Fatalf("defaultAllow covers %d checkers, want %d", len(defaultAllow), len(want))
	}
	for id, prefixes := range want {
		got := defaultAllow[id]
		if len(got) != len(prefixes) {
			t.Errorf("%s: allowlist %v, want %v", id, got, prefixes)
			continue
		}
		for i := range prefixes {
			if got[i] != prefixes[i] {
				t.Errorf("%s[%d] = %q, want %q", id, i, got[i], prefixes[i])
			}
		}
	}

	// Behavioral check: the serving layer is exempt, prefix-adjacent
	// paths and the engines are not.
	cases := []struct {
		checker, file string
		allowed       bool
	}{
		{"nondet-time", "internal/simserve/server.go", true},
		{"nondet-time", "cmd/simd/main.go", false}, // the daemon loop moved to jobapi
		{"nondet-rand", "internal/simserve/metrics.go", true},
		{"stray-goroutine", "internal/simserve/server.go", true},
		{"stray-goroutine", "internal/jobapi/daemon.go", true},
		{"stray-goroutine", "internal/jobapi/jobapi.go", false}, // the wire format spawns nothing
		{"stray-goroutine", "internal/metrics/metrics.go", false},
		{"stray-goroutine", "cmd/simd/main.go", false},
		{"stray-goroutine", "internal/sweep/pool.go", true},
		{"nondet-time", "internal/simbricks/adapter.go", false}, // prefix-adjacent
		{"nondet-time", "cmd/simlint/main.go", false},           // prefix-adjacent
		{"nondet-time", "internal/core/sim.go", false},
		{"nondet-rand", "internal/nex/nex.go", false},
		{"stray-goroutine", "internal/core/sim.go", false},
		{"map-order", "internal/simserve/metrics.go", false}, // no map-order exemptions anywhere
		{"unchecked-error", "internal/simserve/server.go", false},
		{"nondet-time", "internal/simserve/simserve_test.go", true}, // test files always exempt
		{"test-only-export", "internal/accel/acceltest/kit.go", true},
		{"test-only-export", "internal/accel/devkit/driver.go", false}, // the kit itself is production
	}
	for _, c := range cases {
		p := &Pass{Checker: checkerByID(c.checker)}
		if p.Checker == nil {
			t.Fatalf("unknown checker %q", c.checker)
		}
		if got := p.allowed(c.file); got != c.allowed {
			t.Errorf("allowed(%s, %s) = %v, want %v", c.checker, c.file, got, c.allowed)
		}
	}

	// Staleness check: every allowlist entry must still match at least
	// one non-test Go file on the tree. A zero-match prefix is a rename
	// or deletion that silently turned the exemption into dead config —
	// and would silently re-exempt whatever lands at that path later.
	root := filepath.Join("..", "..")
	for id, prefixes := range defaultAllow {
		for _, prefix := range prefixes {
			if matchesAnyGoFile(t, root, prefix) {
				continue
			}
			t.Errorf("%s: allowlist entry %q matches no non-test .go file; remove or update it", id, prefix)
		}
	}
}

// matchesAnyGoFile reports whether an allowlist entry (a directory
// prefix ending in "/", or an exact file path) matches at least one
// non-test Go file under root.
func matchesAnyGoFile(t *testing.T, root, prefix string) bool {
	t.Helper()
	if !strings.HasSuffix(prefix, "/") {
		_, err := os.Stat(filepath.Join(root, filepath.FromSlash(prefix)))
		return err == nil
	}
	dir := filepath.Join(root, filepath.FromSlash(prefix))
	found := false
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || found {
			return fs.SkipAll
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			found = true
			return fs.SkipAll
		}
		return nil
	})
	return found
}

// TestCheckerRegistry pins the suite composition: eight uniquely named
// checkers, resolvable by ID and listed in the same order
// by checkerIDs (the list unknown-directive checks allows against),
// with unknown names rejected.
func TestCheckerRegistry(t *testing.T) {
	cs := Checkers()
	wantIDs := []string{
		"nondet-time", "nondet-rand", "map-order", "stray-goroutine",
		"unchecked-error", "unknown-directive", "hotpath-alloc",
		"test-only-export",
	}
	if !slices.Equal(checkerIDs, wantIDs) {
		t.Errorf("checkerIDs = %v, want %v", checkerIDs, wantIDs)
	}
	if len(cs) != len(wantIDs) {
		t.Fatalf("suite has %d checkers, want %d", len(cs), len(wantIDs))
	}
	seen := map[string]bool{}
	for i, c := range cs {
		if c.ID != wantIDs[i] {
			t.Errorf("checker[%d] = %q, want %q", i, c.ID, wantIDs[i])
		}
		if c.Run == nil {
			t.Errorf("checker %q has no Run", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate checker ID %q", c.ID)
		}
		seen[c.ID] = true
		if checkerByID(c.ID) != c {
			t.Errorf("checkerByID(%q) does not round-trip", c.ID)
		}
		if c.Doc == "" {
			t.Errorf("checker %q has no doc line", c.ID)
		}
	}
	if _, err := resolveCheckers([]string{"no-such-checker"}); err == nil {
		t.Error("resolveCheckers accepted an unknown checker name")
	}
}
