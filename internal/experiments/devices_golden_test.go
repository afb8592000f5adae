package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/workloads"
)

var updateDevicesGolden = flag.Bool("update-devices-golden", false,
	"rewrite testdata/devices.golden from this binary's device models")

// TestDevicesGolden pins what every accelerator model reports: for each
// accelerator bench of the catalog, under nex+dsim and gem5+rtl at
// seeds 1 and 2, the simulated time and all five DeviceStats fields per
// device — the bytes that reach JobResult.devices and every cached
// result. testdata/devices.golden was generated at the commit before the
// device kit (internal/accel/devkit) replaced the six hand-written
// register banks, so a port that moves a timestamp, a DMA byte or a step
// count fails here.
func TestDevicesGolden(t *testing.T) {
	defer SetParallelism(parallelism)
	SetParallelism(2)
	var specs []Spec
	for _, b := range workloads.Catalog() {
		if b.Model == core.AccelNone {
			continue
		}
		for _, stack := range [][2]string{{"nex", "dsim"}, {"gem5", "rtl"}} {
			for seed := uint64(1); seed <= 2; seed++ {
				specs = append(specs, Spec{Bench: b.Name, Host: stack[0], Accel: stack[1], Seed: seed})
			}
		}
	}
	results, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for i, r := range results {
		s := specs[i]
		fmt.Fprintf(&got, "%s %s+%s seed=%d sim_ps=%d\n", s.Bench, s.Host, s.Accel, s.Seed, int64(r.SimTime))
		for j, d := range r.Devices {
			fmt.Fprintf(&got, "  dev%d started=%d completed=%d busy_ps=%d dma_bytes=%d host_steps=%d\n",
				j, d.TasksStarted, d.TasksCompleted, int64(d.BusyTime), d.DMABytes, d.HostSteps)
		}
	}
	diffGolden(t, "testdata/devices.golden", got.Bytes(), *updateDevicesGolden)
}
