package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecNormalizedFillsDefaults(t *testing.T) {
	n, err := Spec{Bench: "jpeg-decode"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Host != "nex" || n.Accel != "dsim" || n.Cores != 16 || n.Seed != 42 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n.SyncMode != "lazy" || n.DMATarget != "llc" {
		t.Fatalf("enum defaults not filled: %+v", n)
	}
	if n.ClockMHz != 3000 || n.AccelClockMHz != 2000 {
		t.Fatalf("clock defaults not filled: %+v", n)
	}
	if n.LinkLatencyNS != 400 {
		t.Fatalf("jpeg link latency default = %d, want 400 (PCIe)", n.LinkLatencyNS)
	}
	p, err := Spec{Bench: "protoacc-bench0"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkLatencyNS != 4 {
		t.Fatalf("protoacc link latency default = %d, want 4 (on-chip)", p.LinkLatencyNS)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Bench: "no-such-bench"},
		{Bench: "jpeg-decode", Host: "qemu"},
		{Bench: "jpeg-decode", Accel: "verilator"},
		{Bench: "jpeg-decode", SyncMode: "sometimes"},
		{Bench: "jpeg-decode", DMATarget: "l3"},
		{Bench: "jpeg-decode", Cores: -1},
		{Bench: "vta-matmul", Devices: 200},
		{Bench: "vta-matmul", Devices: 1 << 30},
		{Bench: "npb-ep.8", Cores: MaxCores + 1},
		{Bench: "npb-ep.8", VirtualCores: 1 << 20},
		{Bench: "npb-ep.8", PhysicalCores: 1 << 20},
		{Bench: "jpeg-decode", IOTLBEntries: -1},
		{Bench: "jpeg-decode", IOTLBEntries: MaxIOTLBEntries + 1},
		{Bench: "jpeg-decode", IOTLBEntries: 1 << 30},
	}
	for _, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
		if _, err := RunSpecAttempt(s, 0, 0); err == nil {
			t.Errorf("RunSpecAttempt accepted invalid spec %+v", s)
		}
	}
	if _, err := RunSpecs([]Spec{{Bench: "jpeg-decode"}, {Bench: "nope"}}); err == nil {
		t.Error("RunSpecs accepted a batch with an invalid spec")
	}
	// The error names the field, and the limits themselves are legal.
	if _, err := (Spec{Bench: "vta-matmul", Devices: 200}).Normalized(); err == nil || !strings.Contains(err.Error(), "devices") {
		t.Errorf("devices: 200 rejected with %v, want an error naming the field", err)
	}
	if _, err := (Spec{Bench: "vta-matmul", Devices: MaxDevices, Cores: MaxCores, VirtualCores: MaxCores, PhysicalCores: MaxCores, IOTLBEntries: MaxIOTLBEntries}).Normalized(); err != nil {
		t.Errorf("spec at the limits rejected: %v", err)
	}
}

// TestSpecIDCanonical pins content addressing: explicit defaults and
// omitted fields share one address, and any semantic difference
// changes it.
func TestSpecIDCanonical(t *testing.T) {
	implicit := Spec{Bench: "npb-ep.8"}
	explicit := Spec{Bench: "npb-ep.8", Host: "nex", Accel: "dsim",
		Cores: 16, Seed: 42, SyncMode: "lazy", DMATarget: "llc",
		ClockMHz: 3000, AccelClockMHz: 2000, LinkLatencyNS: 400}
	a, err := implicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("explicit-default spec hashed differently:\n %s\n %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("ID length %d, want 64 hex chars", len(a))
	}
	c, err := Spec{Bench: "npb-ep.8", Seed: 7}.ID()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed produced the same content address")
	}
	j1, _ := implicit.CanonicalJSON()
	j2, _ := explicit.CanonicalJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", j1, j2)
	}
}

// TestSpecIOTLBEntries: the IOTLB axis is absent from the canonical
// encoding when off — the bytes an existing spec hashed to before the
// field existed are the bytes it hashes to now — and part of the address,
// the prefix group's late-binding half and the run when on.
func TestSpecIOTLBEntries(t *testing.T) {
	const want = `{"bench":"jpeg-decode","host":"nex","accel":"dsim","cores":16,"devices":1,"seed":42,` +
		`"clock_mhz":3000,"accel_clock_mhz":2000,"sync_mode":"lazy","fabric":"pcie","link_latency_ns":400,"dma_target":"llc"}`
	off := Spec{Bench: "jpeg-decode"}
	got, err := off.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("canonical JSON of an IOTLB-less spec moved:\n got: %s\nwant: %s", got, want)
	}
	on := Spec{Bench: "jpeg-decode", IOTLBEntries: 8}
	idOff, _ := off.ID()
	idOn, err := on.ID()
	if err != nil || idOn == idOff {
		t.Fatalf("iotlb_entries: 8 did not change the content address (%v)", err)
	}
	nOff, _ := off.Normalized()
	nOn, _ := on.Normalized()
	if g := PrefixGroups([]Spec{nOff, nOn}); len(g) != 1 {
		t.Errorf("IOTLB on/off split the prefix group: %v", g)
	}
	res, err := RunSpecs([]Spec{off, on})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].SimTime <= res[0].SimTime {
		t.Errorf("an 8-entry IOTLB did not lengthen jpeg-decode: %v vs %v", res[1].SimTime, res[0].SimTime)
	}
}

// TestRunSpecDeterministic locks the property that makes
// content-addressed result caching sound: the same spec yields the
// same result.
func TestRunSpecDeterministic(t *testing.T) {
	spec := Spec{Bench: "npb-cg.8", EpochNS: 1000}
	r1, err := RunSpecAttempt(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpecAttempt(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SimTime != r2.SimTime || r1.NEXStats != r2.NEXStats {
		t.Fatalf("RunSpecAttempt not deterministic: %v/%v vs %v/%v",
			r1.SimTime, r1.NEXStats, r2.SimTime, r2.NEXStats)
	}
}

// TestRunSpecsOrderAndParallel checks batch results stay in spec order
// at any worker count.
func TestRunSpecsOrderAndParallel(t *testing.T) {
	specs := []Spec{
		{Bench: "npb-ep.8", Host: "reference"},
		{Bench: "npb-cg.8", Host: "reference"},
		{Bench: "npb-ep.8", Host: "nex", EpochNS: 1000},
	}
	serial, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	old := parallelism
	SetParallelism(4)
	defer SetParallelism(old)
	par, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].SimTime != par[i].SimTime {
			t.Fatalf("spec %d: serial %v != parallel %v", i, serial[i].SimTime, par[i].SimTime)
		}
	}
}
