package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nexsim/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/tables.golden and testdata/ids.golden from this binary")

// TestTablesGolden pins every table whose every printed byte is simulated
// — the 15 experiments of All() that are not Wall. testdata/tables.golden
// was generated at the commit before the experiments were ported onto the
// one Spec run path, so a port that moves a simulated time, a counter or
// a column fails here.
//
// The same tables are then produced a second way — sweep points forked
// from shared prefix checkpoints — and must match the same golden byte
// for byte: a fork that resumes from another point than a straight run
// shows up as a diff here.
func TestTablesGolden(t *testing.T) {
	defer SetParallelism(parallelism)
	defer SetCheckpoints(CheckpointsEnabled())
	defer ResetCheckpointStore()
	SetParallelism(2)
	for _, c := range []struct {
		name   string
		forked bool
	}{
		{"straight", false},
		{"forked", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ResetCheckpointStore()
			SetCheckpoints(c.forked)
			var got bytes.Buffer
			for _, e := range All() {
				if e.Wall {
					continue
				}
				fmt.Fprintf(&got, "==== %s ====\n", e.ID)
				wall, err := e.Run(&got)
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				// Every run goes through the executor, so every experiment
				// reports a wall time (six of these used to build their
				// systems themselves and reported none).
				if wall <= 0 {
					t.Errorf("%s: executor reported wall time %v, want > 0", e.ID, wall)
				}
			}
			if c.forked && CheckpointStats().Hits == 0 {
				t.Error("no run forked from a checkpoint: the forked pass checked nothing")
			}
			// Only the straight pass rewrites the golden; the forked pass
			// is compared against what it wrote.
			diffGolden(t, "testdata/tables.golden", got.Bytes(), *updateGolden && !c.forked)
		})
	}
}

// TestIDsGolden pins the content address of every spec the catalog could
// name when testdata/ids.golden was written (each bench under nex+dsim
// and gem5+rtl): a cached result, a WAL record and an edge-cache entry
// are all keyed by these, so a Spec field added without omitempty, a moved
// default or a renamed bench fails here. Benches catalogued later are
// not listed; -update-golden rewrites the file over the whole catalog.
func TestIDsGolden(t *testing.T) {
	const path = "testdata/ids.golden"
	if *updateGolden {
		var out bytes.Buffer
		for _, b := range workloads.Catalog() {
			for _, stack := range [][2]string{{"nex", "dsim"}, {"gem5", "rtl"}} {
				id, err := Spec{Bench: b.Name, Host: stack[0], Accel: stack[1]}.ID()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %s %s %s\n", b.Name, stack[0], stack[1], id)
			}
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) < 64 {
		t.Fatalf("ids.golden lists %d specs, want the whole pre-port catalog (64)", len(lines))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed ids.golden line %q", line)
		}
		id, err := Spec{Bench: f[0], Host: f[1], Accel: f[2]}.ID()
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if id != f[3] {
			t.Errorf("%s %s+%s: content address moved\n got: %s\nwant: %s", f[0], f[1], f[2], id, f[3])
		}
	}
}

// diffGolden compares got with the golden file at path (or, when update
// is set, rewrites it) and reports the first differing line.
func diffGolden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
