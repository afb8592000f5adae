package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main() instead of the tests, so
// each case below is a real simlint process with a real exit status.
const runMainEnv = "SIMLINT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// simlint runs main() in a child process inside dir and returns its
// stdout and exit status.
func simlint(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("simlint %v: %v\nstderr: %s", args, err, stderr.String())
	return "", 0
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExitStatus pins the contract the check.sh gate relies on: a
// finding exits 1 (a gate that exited 0 here would pass silently), a
// clean module exits 0, and a bad checker name exits 2.
func TestExitStatus(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module tinymod\n\ngo 1.21\n")
	aGo := filepath.Join(root, "a.go")
	writeFile(t, aGo, "package tinymod\n\nimport \"time\"\n\nfunc stamp() int64 { return time.Now().UnixNano() }\n")

	out, code := simlint(t, root)
	if code != 1 {
		t.Errorf("module with a finding: exit %d, want 1", code)
	}
	if !regexp.MustCompile(`(?m)^a\.go:5:\d+: \[nondet-time\] `).MatchString(out) {
		t.Errorf("module with a finding: stdout lacks the a.go:5 nondet-time line:\n%s", out)
	}

	writeFile(t, aGo, "package tinymod\n\nfunc stamp() int64 { return 42 }\n")
	out, code = simlint(t, root, "-json")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("clean module -json: exit %d, stdout %q; want 0 and []", code, out)
	}

	if _, code = simlint(t, root, "-c", "no-such-checker"); code != 2 {
		t.Errorf("-c no-such-checker: exit %d, want 2", code)
	}
}
