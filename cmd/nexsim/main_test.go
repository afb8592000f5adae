package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main() instead of the tests, so
// each case below is a real nexsim process with a real exit status.
const runMainEnv = "NEXSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nexsim runs main() in a child process inside dir and returns its
// stdout, stderr and exit status.
func nexsim(t *testing.T, dir string, args ...string) (string, string, int) {
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
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("nexsim %v: %v\nstderr: %s", args, err, stderr.String())
	return "", "", 0
}

// TestSeedSweepRefusesTrace: a -seeds sweep attaches no recorder, so
// asking it for a trace is refused with exit 2 and a message naming
// both flags, before anything runs or any file is written.
func TestSeedSweepRefusesTrace(t *testing.T) {
	for _, flag := range [][]string{{"-trace"}, {"-chrome-trace", "f.json"}} {
		dir := t.TempDir()
		args := append([]string{"-bench", "jpeg-decode", "-seeds", "2", "-parallel", "1"}, flag...)
		stdout, stderr, code := nexsim(t, dir, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s", flag, code, stdout)
		}
		if stdout != "" {
			t.Errorf("%v: a refused sweep printed %q", flag, stdout)
		}
		if !strings.Contains(stderr, "-seeds") || !strings.Contains(stderr, flag[0]) {
			t.Errorf("%v: message %q does not name -seeds and %s", flag, stderr, flag[0])
		}
		if _, err := os.Stat(filepath.Join(dir, "f.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: trace file written (stat err %v)", flag, err)
		}
	}
}
