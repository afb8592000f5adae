package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nexsim/internal/vclock"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Span{Component: "x", Kind: Compute, Start: 0, End: 10})
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}
	if got := r.Totals(); len(got) != 0 {
		t.Fatal("nil recorder returned totals")
	}
}

func TestEmptySpansDropped(t *testing.T) {
	r := New()
	r.Add(Span{Component: "x", Kind: Compute, Start: 10, End: 10})
	r.Add(Span{Component: "x", Kind: Compute, Start: 10, End: 5})
	if len(r.Spans()) != 0 {
		t.Fatal("degenerate spans recorded")
	}
}

func TestSpansSortedByStart(t *testing.T) {
	r := New()
	r.Add(Span{Component: "b", Kind: Compute, Start: 20, End: 30})
	r.Add(Span{Component: "a", Kind: Compute, Start: 0, End: 10})
	s := r.Spans()
	if len(s) != 2 || s[0].Component != "a" {
		t.Fatalf("spans = %+v", s)
	}
}

func TestTotalsAggregate(t *testing.T) {
	r := New()
	r.Add(Span{Component: "t0", Kind: Compute, Start: 0, End: 10})
	r.Add(Span{Component: "t0", Kind: Compute, Start: 20, End: 25})
	r.Add(Span{Component: "t0", Kind: Blocked, Start: 10, End: 20})
	r.Add(Span{Component: "t1", Kind: MMIO, Start: 0, End: 40})
	tot := r.Totals()
	if tot["t0"][Compute] != 15 {
		t.Fatalf("compute total = %v", tot["t0"][Compute])
	}
	if tot["t0"][Blocked] != 10 {
		t.Fatalf("blocked total = %v", tot["t0"][Blocked])
	}
	if tot["t1"][MMIO] != 40 {
		t.Fatalf("mmio total = %v", tot["t1"][MMIO])
	}
}

func TestDumpFormat(t *testing.T) {
	r := New()
	r.Add(Span{Component: "main#0", Kind: Compute, Start: 0, End: vclock.Time(vclock.Millisecond)})
	var buf bytes.Buffer
	r.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "main#0") || !strings.Contains(out, "compute=1ms") {
		t.Fatalf("dump = %q", out)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Compute: "compute", Blocked: "blocked", MMIO: "mmio", Kind(3): "?", Kind(99): "?",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := New()
	r.Add(Span{Component: "main#0", Kind: Compute, Start: 0, End: vclock.Time(vclock.Microsecond)})
	r.Add(Span{Component: "main#1", Kind: MMIO, Start: 500, End: 1500})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["name"] != "compute" {
		t.Fatalf("event 0 = %v", events[0])
	}
	if events[1]["name"] != "mmio" || events[1]["tid"] != 2.0 {
		t.Fatalf("event 1 name = %v", events[1]["name"])
	}
}
