package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTinyModule lays down a minimal module with one deliberate
// nondet-time finding and one hotpath-alloc finding, returning its
// root.
func writeTinyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tinymod\n\ngo 1.21\n",
		"a.go": `package tinymod

import "time"

// Stamp has the one deliberate finding of this module.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"sub/b.go": `package sub

// Twice exists so the module has a second package.
func Twice(x int) int { return 2 * x }

// Scratch has the module's one hot-path allocation.
//
//simlint:hotpath
func Scratch(n int) []int { return make([]int, n) }
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
// two packages: the full suite reports both, a checker subset that
// covers neither reports nothing, an unknown checker name is an error,
// and the edit that removes the wall-clock read and the hot-path
// allocation leaves the module clean.
func TestAnalyzeModule(t *testing.T) {
	root := writeTinyModule(t)

	got, err := AnalyzeModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Checker != "nondet-time" || got[0].File != "a.go" ||
		got[1].Checker != "hotpath-alloc" || got[1].File != "sub/b.go" {
		t.Fatalf("findings = %v, want nondet-time in a.go and hotpath-alloc in sub/b.go", got)
	}

	if got, err := AnalyzeModule(root, []string{"map-order"}); err != nil || len(got) != 0 {
		t.Fatalf("map-order only: findings = %v, err = %v; want none", got, err)
	}

	if _, err := AnalyzeModule(root, []string{"no-such-checker"}); err == nil {
		t.Fatal("an unknown checker name was accepted")
	}

	clean := map[string]string{
		"a.go": `package tinymod

// Stamp no longer reads the wall clock.
func Stamp() int64 { return 42 }
`,
		"sub/b.go": `package sub

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
