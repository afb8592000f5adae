package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTinyModule lays down a minimal module with one deliberate
// nondet-time finding, returning its root.
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
// AnalyzeScope over every package — on a module that has a finding:
// the full suite reports it, a checker subset that does not cover it
// reports nothing, an unknown checker name is an error, and the edit
// that removes the wall-clock read leaves the module clean.
func TestAnalyzeModule(t *testing.T) {
	root := writeTinyModule(t)

	got, err := AnalyzeModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Checker != "nondet-time" || got[0].File != "a.go" {
		t.Fatalf("findings = %v, want one nondet-time finding in a.go", got)
	}

	if got, err := AnalyzeModule(root, []string{"map-order"}); err != nil || len(got) != 0 {
		t.Fatalf("map-order only: findings = %v, err = %v; want none", got, err)
	}

	if _, err := AnalyzeModule(root, []string{"no-such-checker"}); err == nil {
		t.Fatal("an unknown checker name was accepted")
	}

	clean := `package tinymod

// Stamp no longer reads the wall clock.
func Stamp() int64 { return 42 }
`
	if err := os.WriteFile(filepath.Join(root, "a.go"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := AnalyzeModule(root, nil); err != nil || len(got) != 0 {
		t.Fatalf("after the edit: findings = %v, err = %v; want none", got, err)
	}
}
