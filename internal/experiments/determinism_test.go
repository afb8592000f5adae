package experiments

import (
	"bytes"
	"testing"
)

// TestRepeatedRunByteIdentical is the runtime complement to simlint's
// static map-order checker: it renders one representative experiment
// (table4, the NEX epoch sweep) twice in-process serially and once under
// 4 workers, and asserts all three tables are byte-identical. A
// side-effecting map iteration or any other hidden per-process
// randomness would make the second in-process run differ even where a
// single run per process looks stable.
func TestRepeatedRunByteIdentical(t *testing.T) {
	defer SetParallelism(1)
	exp, err := ByID("table4")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) []byte {
		SetParallelism(workers)
		var buf bytes.Buffer
		if _, err := exp.Run(&buf); err != nil {
			t.Fatalf("run with %d workers: %v", workers, err)
		}
		return buf.Bytes()
	}
	first := render(1)
	second := render(1)
	if !bytes.Equal(first, second) {
		t.Errorf("repeated in-process serial runs differ:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	par := render(4)
	if !bytes.Equal(first, par) {
		t.Errorf("serial and -parallel 4 runs differ:\nserial:\n%s\nparallel:\n%s", first, par)
	}
}
