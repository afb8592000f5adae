package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/trace"
	"nexsim/internal/workloads"
)

// TestIntraByteIdentity is the tentpole's core guarantee: running with
// IntraParallel N >= 2 produces byte-identical simulation results —
// simulated time, device statistics, NEX statistics, and the full trace
// span stream and its Chrome trace JSON — to the serial schedule, across
// all four Table-1 host/accelerator combinations, the reference host,
// and multiple device counts.
func TestIntraByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	hosts := []struct {
		name string
		host core.HostKind
	}{
		{"reference", core.HostReference},
		{"nex", core.HostNEX},
		{"gem5", core.HostGem5},
	}
	accels := []core.AccelKind{core.AccelDSim, core.AccelRTL}

	for _, h := range hosts {
		for _, ak := range accels {
			if h.host == core.HostReference && ak == core.AccelRTL {
				continue // not a Table-1 combination; keep the matrix fast
			}
			for _, devs := range []int{1, 4} {
				name := fmt.Sprintf("%s-%s-x%d", h.name, ak, devs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var base core.Result
					var baseSpans []trace.Span
					var baseChrome []byte
					for _, intra := range []int{1, 2, 4} {
						rec := trace.New()
						cfg := core.Config{
							Host: h.host, Accel: ak,
							Model: core.AccelJPEG, Devices: devs,
							IntraParallel: intra, Trace: rec, Seed: 7,
						}
						bench, err := workloads.ByName(fmt.Sprintf("jpeg-mt.%d", devs))
						if devs == 1 {
							bench, err = workloads.ByName("jpeg-decode")
						}
						if err != nil {
							t.Fatal(err)
						}
						sys := core.Build(cfg)
						r := sys.Run(bench.Build(&sys.Ctx))
						spans := rec.Spans()
						var chrome bytes.Buffer
						if err := rec.WriteChromeTrace(&chrome); err != nil {
							t.Fatal(err)
						}
						if intra == 1 {
							base, baseSpans, baseChrome = r, spans, chrome.Bytes()
							continue
						}
						if want := 1 + min(intra-1, devs); r.Intra != want {
							t.Errorf("intra=%d: core.Result.Intra = %d, want %d", intra, r.Intra, want)
						}
						if r.SimTime != base.SimTime {
							t.Errorf("intra=%d: SimTime %v != serial %v", intra, r.SimTime, base.SimTime)
						}
						if r.NEXStats != base.NEXStats {
							t.Errorf("intra=%d: NEXStats diverged:\n %+v\n %+v", intra, r.NEXStats, base.NEXStats)
						}
						if len(r.Devices) != len(base.Devices) {
							t.Fatalf("intra=%d: %d device stats, serial has %d", intra, len(r.Devices), len(base.Devices))
						}
						for i := range r.Devices {
							if r.Devices[i] != base.Devices[i] {
								t.Errorf("intra=%d: device %d stats diverged:\n %+v\n %+v",
									intra, i, r.Devices[i], base.Devices[i])
							}
						}
						if len(spans) != len(baseSpans) {
							t.Fatalf("intra=%d: %d trace spans, serial has %d", intra, len(spans), len(baseSpans))
						}
						for i := range spans {
							if spans[i] != baseSpans[i] {
								t.Errorf("intra=%d: trace span %d diverged:\n %+v\n %+v",
									intra, i, spans[i], baseSpans[i])
								break
							}
						}
						if !bytes.Equal(chrome.Bytes(), baseChrome) {
							t.Errorf("intra=%d: Chrome trace JSON differs from serial", intra)
						}
					}
				})
			}
		}
	}
}

// TestIntraByteIdentityVTAProtoacc extends the differential matrix to
// the other two accelerator models (strictly-alternating VTA and the
// fully asynchronous Protoacc driver) on the fastest host.
func TestIntraByteIdentityVTAProtoacc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	cases := []struct {
		bench string
		model core.AccelModel
		devs  int
	}{
		{"vta-matmul", core.AccelVTA, 1},
		{"protoacc-bench0", core.AccelProtoacc, 1},
	}
	for _, c := range cases {
		t.Run(c.bench, func(t *testing.T) {
			t.Parallel()
			bench, err := workloads.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			var base core.Result
			for _, intra := range []int{1, 3} {
				cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim, Model: c.model,
					Devices: c.devs, IntraParallel: intra, Seed: 11}
				sys := core.Build(cfg)
				r := sys.Run(bench.Build(&sys.Ctx))
				if intra == 1 {
					base = r
					continue
				}
				if r.SimTime != base.SimTime {
					t.Errorf("intra=%d: SimTime %v != serial %v", intra, r.SimTime, base.SimTime)
				}
				for i := range r.Devices {
					if r.Devices[i] != base.Devices[i] {
						t.Errorf("intra=%d: device %d stats diverged", intra, i)
					}
				}
			}
		})
	}
}

// TestIntraIRQPathStaysSerial pins the fallback: drivers that enable
// completion interrupts force inline (serial-schedule) advancement, and
// results still match serial exactly.
func TestIntraIRQPathStaysSerial(t *testing.T) {
	var base core.Result
	for _, intra := range []int{1, 2} {
		cfg := core.Config{Host: core.HostReference, Accel: core.AccelDSim, Model: core.AccelJPEG,
			Devices: 1, IntraParallel: intra, Seed: 3}
		sys := core.Build(cfg)
		prog := workloads.JPEGProgram(workloads.JPEGConfig{
			Images: 8, Threads: 1, Seed: 9, UseIRQ: true}, &sys.Ctx)
		r := sys.Run(prog)
		if intra == 1 {
			base = r
			continue
		}
		if r.SimTime != base.SimTime {
			t.Errorf("intra=%d (IRQ mode): SimTime %v != serial %v", intra, r.SimTime, base.SimTime)
		}
	}
}
