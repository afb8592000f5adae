package experiments

import (
	"bytes"
	"testing"
)

// deterministicExps are the experiments whose tables contain only
// simulated-time results (no wall-clock columns), so their output must
// be byte-identical regardless of how many workers execute the jobs.
// (fig3/fig4/table1 et al. print measured wall times and can never be
// byte-stable across runs, parallel or not.)
var deterministicExps = []string{
	"fig5", "whatif", "vtasweep", "protosweep",
	"table4", "underprov", "compsched", "seedsweep",
}

// TestParallelOutputByteIdentical runs each deterministic experiment
// serially and with 4 workers and asserts the rendered tables match
// byte for byte — the sweep executor's core contract.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment twice")
	}
	defer SetParallelism(1)
	for _, id := range deterministicExps {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var serial, par bytes.Buffer
			SetParallelism(1)
			if _, err := exp.Run(&serial); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			SetParallelism(4)
			if _, err := exp.Run(&par); err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if !bytes.Equal(serial.Bytes(), par.Bytes()) {
				t.Errorf("output differs between serial and -parallel 4 runs\nserial:\n%s\nparallel:\n%s",
					serial.String(), par.String())
			}
		})
	}
}

// TestIntraOutputByteIdentical is the experiments-level face of the
// conservative-parallel contract (DESIGN.md §10): rendering a
// deterministic table with intra-run parallelism enabled produces the
// same bytes as the serial schedule. A subset of deterministicExps
// keeps the runtime bounded; the exhaustive per-engine matrix lives in
// internal/core's TestIntraByteIdentity.
func TestIntraOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each experiment twice")
	}
	defer SetIntra(1)
	for _, id := range []string{"fig5", "whatif", "protosweep"} {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var serial, par bytes.Buffer
			SetIntra(1)
			if _, err := exp.Run(&serial); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			SetIntra(3)
			if _, err := exp.Run(&par); err != nil {
				t.Fatalf("intra run: %v", err)
			}
			if !bytes.Equal(serial.Bytes(), par.Bytes()) {
				t.Errorf("output differs between intra 1 and intra 3 runs\nserial:\n%s\nintra:\n%s",
					serial.String(), par.String())
			}
		})
	}
}

// TestIntraSpecIdentityAndResult pins two properties of the spec path:
// the content address is independent of the intra setting (intra is an
// execution knob, not spec content — cached results must be shared),
// and RunSpec returns identical simulated results either way.
func TestIntraSpecIdentityAndResult(t *testing.T) {
	defer SetIntra(1)
	s := Spec{Bench: "jpeg-mt.4"}
	SetIntra(1)
	id1, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	SetIntra(4)
	id2, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("spec ID changed with intra setting: %s vs %s", id1, id2)
	}
	if r1.SimTime != r2.SimTime || r1.NEXStats != r2.NEXStats {
		t.Errorf("spec result diverged under intra: %+v vs %+v", r1, r2)
	}
	if r2.Intra < 2 {
		t.Errorf("intra run reported Intra=%d, want >= 2", r2.Intra)
	}
}
