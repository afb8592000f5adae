package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTinyModule lays down a minimal module with one deliberate
// nondet-time finding, one hotpath-alloc finding and one
// test-only-export finding, returning its root. Twice and Scratch are
// referenced from the other package only, which the module-wide index
// of test-only-export counts.
func writeTinyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tinymod\n\ngo 1.21\n",
		"a.go": `package main

import (
	"time"

	"tinymod/sub"
)

func main() { println(Stamp(), sub.Twice(2), len(sub.Scratch(4))) }

// Stamp has the module's one wall-clock read.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"sub/b.go": `package sub

// Twice exists so the module has a second package.
func Twice(x int) int { return 2 * x }

// Scratch has the module's one hot-path allocation.
//
//simlint:hotpath
func Scratch(n int) []int { return make([]int, n) }

// Thrice has no caller.
func Thrice(x int) int { return 3 * x }
`,
	}
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestAnalyzeModule runs simlint's one path — LoadModule, then
// AnalyzeScope over every package — on a module that has findings in
// two packages: the full suite reports all three, a checker subset that
// covers none reports nothing, an unknown checker name is an error, and
// the edit that removes the wall-clock read, the hot-path allocation
// and the uncalled function leaves the module clean.
func TestAnalyzeModule(t *testing.T) {
	root := writeTinyModule(t)

	got, err := AnalyzeModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Checker != "nondet-time" || got[0].File != "a.go" ||
		got[1].Checker != "hotpath-alloc" || got[1].File != "sub/b.go" ||
		got[2].Checker != "test-only-export" || got[2].File != "sub/b.go" {
		t.Fatalf("findings = %v, want nondet-time in a.go, hotpath-alloc and test-only-export in sub/b.go", got)
	}

	if got, err := AnalyzeModule(root, []string{"map-order"}); err != nil || len(got) != 0 {
		t.Fatalf("map-order only: findings = %v, err = %v; want none", got, err)
	}

	if _, err := AnalyzeModule(root, []string{"no-such-checker"}); err == nil {
		t.Fatal("an unknown checker name was accepted")
	}

	clean := map[string]string{
		"a.go": `package main

import "tinymod/sub"

func main() { println(Stamp(), sub.Twice(2), len(sub.Scratch(nil))) }

// Stamp no longer reads the wall clock.
func Stamp() int64 { return 42 }
`,
		"sub/b.go": `package sub

// Twice exists so the module has a second package.
func Twice(x int) int { return 2 * x }

// Scratch fills the caller's buffer instead of allocating one.
//
//simlint:hotpath
func Scratch(buf []int) []int { return buf[:0] }
`,
	}
	for rel, content := range clean {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := AnalyzeModule(root, nil); err != nil || len(got) != 0 {
		t.Fatalf("after the edit: findings = %v, err = %v; want none", got, err)
	}
}
