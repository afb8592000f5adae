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
