package core_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/interconnect"
	"nexsim/internal/nex"
	"nexsim/internal/workloads"
)

// newSys builds a system for one bench and config shaper, and the
// bench's program on it.
func newSys(t *testing.T, bench string, shape func(*core.Config)) (*core.System, app.Program) {
	t.Helper()
	b, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	return sys, b.Build(&sys.Ctx)
}

// straightRun runs one bench through on a fresh system.
func straightRun(t *testing.T, bench string, shape func(*core.Config)) core.Result {
	t.Helper()
	sys, prog := newSys(t, bench, shape)
	return sys.Run(prog)
}

// checkpointOf runs the prefix on a fresh system and returns its blob,
// reaping the halted prefix's parked threads.
func checkpointOf(t *testing.T, bench string, shape func(*core.Config)) []byte {
	t.Helper()
	sys, prog := newSys(t, bench, shape)
	if _, completed := sys.RunPrefix(prog); completed {
		t.Fatalf("%s: prefix ran to completion", bench)
	}
	defer sys.Reap()
	blob, err := sys.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", bench, err)
	}
	return blob
}

// resumeFrom restores blob into a fresh system and runs it out.
func resumeFrom(t *testing.T, blob []byte, bench string, shape func(*core.Config)) core.Result {
	t.Helper()
	sys, prog := newSys(t, bench, shape)
	if err := sys.RestoreCheckpoint(blob, prog); err != nil {
		t.Fatalf("%s: restore: %v", bench, err)
	}
	return sys.ResumeRun()
}

// sameRun compares everything except wall-clock.
func sameRun(t *testing.T, label string, got, want core.Result) {
	t.Helper()
	if got.SimTime != want.SimTime {
		t.Errorf("%s: SimTime %v, want %v", label, got.SimTime, want.SimTime)
	}
	if got.NEXStats != want.NEXStats {
		t.Errorf("%s: NEXStats diverged:\n got  %+v\n want %+v", label, got.NEXStats, want.NEXStats)
	}
	if got.ChannelMsgs != want.ChannelMsgs {
		t.Errorf("%s: ChannelMsgs %d, want %d", label, got.ChannelMsgs, want.ChannelMsgs)
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("%s: %d device stats, want %d", label, len(got.Devices), len(want.Devices))
	}
	for i := range got.Devices {
		if got.Devices[i] != want.Devices[i] {
			t.Errorf("%s: device %d stats diverged:\n got  %+v\n want %+v",
				label, i, got.Devices[i], want.Devices[i])
		}
	}
}

// TestCheckpointResumeMatchesRun is the end-to-end fork differential:
// prefix+checkpoint+restore+resume must equal a straight run on every
// accelerator family, on a multi-device bench, under the eager and
// hybrid sync modes, which advance the idle devices before the halt,
// and with more runnable threads than virtual cores, where the fair
// policy's service counts decide who runs.
func TestCheckpointResumeMatchesRun(t *testing.T) {
	eager := func(c *core.Config) { c.NEX.Mode = nex.Eager }
	hybrid := func(c *core.Config) { c.NEX.Mode = nex.Hybrid }
	oneCore := func(c *core.Config) { c.NEX.VirtualCores, c.NEX.PhysicalCores = 1, 1 }
	for _, tc := range []struct {
		name, bench string
		shape       func(*core.Config)
	}{
		{"jpeg-decode", "jpeg-decode", nil},
		{"vta-resnet18", "vta-resnet18", nil},
		{"protoacc-bench0", "protoacc-bench0", nil},
		{"jpeg-mt.4", "jpeg-mt.4", nil},
		{"jpeg-decode/eager", "jpeg-decode", eager},
		{"vta-resnet18/hybrid", "vta-resnet18", hybrid},
		{"jpeg-mt.4/eager", "jpeg-mt.4", eager},
		{"jpeg-mt.4/hybrid", "jpeg-mt.4", hybrid},
		{"vta-resnet18/rtl-eager", "vta-resnet18", func(c *core.Config) { eager(c); c.Accel = core.AccelRTL }},
		{"vta-resnet18-mp4/vcores1", "vta-resnet18-mp4", oneCore},
		{"jpeg-mt.4/vcores1", "jpeg-mt.4", oneCore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := straightRun(t, tc.bench, tc.shape)
			blob := checkpointOf(t, tc.bench, tc.shape)
			got := resumeFrom(t, blob, tc.bench, tc.shape)
			sameRun(t, tc.name, got, want)
		})
	}
}

// TestCheckpointSharedAcrossLateBinding: one prefix blob (taken on the
// normalized configuration) must fork correctly into every late-binding
// variant — different accelerator engine, DMA level, fabric, channel.
func TestCheckpointSharedAcrossLateBinding(t *testing.T) {
	const bench = "vta-resnet18"
	blob := checkpointOf(t, bench, nil) // normalized: DSim, default fabric, LLC

	onchip := interconnect.OnChip4
	variants := []struct {
		name  string
		shape func(*core.Config)
	}{
		{"accel-rtl", func(c *core.Config) { c.Accel = core.AccelRTL }},
		{"dma-l2", func(c *core.Config) { c.DMATarget = core.DMAL2 }},
		{"fabric-onchip", func(c *core.Config) { c.Fabric = &onchip }},
		{"channel", func(c *core.Config) { c.UseChannel = true }},
	}
	for _, v := range variants {
		want := straightRun(t, bench, v.shape)
		got := resumeFrom(t, blob, bench, v.shape)
		sameRun(t, v.name, got, want)
	}
}

// TestCheckpointContentAddressed: the blob is a sharing key — identical
// prefixes encode identically.
func TestCheckpointContentAddressed(t *testing.T) {
	a := checkpointOf(t, "vta-resnet18", nil)
	b := checkpointOf(t, "vta-resnet18", nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical prefixes produced different checkpoint blobs")
	}
	c := checkpointOf(t, "protoacc-bench0", nil)
	if bytes.Equal(a, c) {
		t.Fatal("different prefixes collided")
	}
}

// TestRestoreCorruptBlob: a blob the re-run prefix does not reproduce —
// empty, truncated, padded, overwritten at the head, another bench's or
// another seed's — is refused with an error, never a panic, and the
// refused re-run's parked threads are reaped.
func TestRestoreCorruptBlob(t *testing.T) {
	const bench = "protoacc-bench0"
	blob := checkpointOf(t, bench, nil)
	badMagic := append([]byte(nil), blob...)
	copy(badMagic, "WRONG!")
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"bad-magic", badMagic},
		{"truncated-header", blob[:4]},
		{"truncated-half", blob[:len(blob)/2]},
		{"truncated-one", blob[:len(blob)-1]},
		{"trailing-garbage", append(append([]byte(nil), blob...), 0xDE, 0xAD)},
		{"other-bench", checkpointOf(t, "vta-resnet18", nil)},
		{"other-seed", checkpointOf(t, bench, func(c *core.Config) { c.Seed = 7 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refuseAll(t, bench, [][]byte{tc.blob})
		})
	}
}

// TestRestoreBitFlippedBlob: every single-bit flip of a valid blob is
// refused, without a panic or a leaked thread.
func TestRestoreBitFlippedBlob(t *testing.T) {
	const bench = "protoacc-bench0"
	blob := checkpointOf(t, bench, nil)
	var flips [][]byte
	for bit := 0; bit < 8*len(blob); bit++ {
		c := append([]byte(nil), blob...)
		c[bit/8] ^= 1 << (bit % 8)
		flips = append(flips, c)
	}
	refuseAll(t, bench, flips)
}

// refuseAll restores each blob onto a fresh bench system, fails unless
// every restore returns an error without panicking, and fails if the
// refused re-runs leave goroutines behind.
func refuseAll(t *testing.T, bench string, blobs [][]byte) {
	t.Helper()
	runtime.GC()
	before := runtime.NumGoroutine()
	for i, bad := range blobs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("blob %d: restore panicked: %v", i, r)
				}
			}()
			sys, prog := newSys(t, bench, nil)
			defer sys.Release()
			if err := sys.RestoreCheckpoint(bad, prog); err == nil {
				t.Fatalf("blob %d: restored without error", i)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("refused restores leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCheckpointRefusals(t *testing.T) {
	// Non-NEX host cannot checkpoint; RunPrefix degrades to a full run.
	b, _ := workloads.ByName("jpeg-decode")
	sys := core.Build(core.Config{Host: core.HostReference, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42})
	if sys.CanCheckpoint() {
		t.Fatal("reference host claims checkpoint support")
	}
	res, completed := sys.RunPrefix(b.Build(&sys.Ctx))
	if !completed || res.SimTime <= 0 {
		t.Fatal("non-checkpointable RunPrefix did not degrade to a full run")
	}
	if _, err := sys.Checkpoint(); err == nil {
		t.Fatal("reference host produced a checkpoint")
	}
}

// TestResumedRunReportsWallSplit: a run forked from a checkpoint reports
// the wall time of its resumed part the way a straight run reports its
// whole (it was dropped, so every forked run fed the experiments' wall
// accounting zeros), and no device wall: devices run on the engine's
// goroutine.
func TestResumedRunReportsWallSplit(t *testing.T) {
	const bench = "jpeg-mt.4"
	r := resumeFrom(t, checkpointOf(t, bench, nil), bench, nil)
	if r.WallTime <= 0 || r.DeviceWall != 0 {
		t.Errorf("resume: WallTime %v, DeviceWall %v; want > 0 and 0", r.WallTime, r.DeviceWall)
	}
}

// TestTryResumeBudget: a forked run that blows its Budget aborts under
// TryRun's contract — the same structured error, engine reaped — and,
// since a fork re-runs the prefix under the same budget, at the same
// simulated time as a straight run.
func TestTryResumeBudget(t *testing.T) {
	const bench = "jpeg-decode"
	budget := func(c *core.Config) { c.Budget.MaxSteps = 1 }

	sys, prog := newSys(t, bench, budget)
	_, straightErr := sys.TryRun(prog)

	sys, prog = newSys(t, bench, budget)
	if err := sys.RestoreCheckpoint(checkpointOf(t, bench, nil), prog); err != nil {
		t.Fatal(err)
	}
	_, err := sys.TryResume()
	if !errors.Is(err, core.ErrBudgetExceeded) || !errors.Is(straightErr, core.ErrBudgetExceeded) {
		t.Fatalf("TryResume err = %v, TryRun err = %v; want both ErrBudgetExceeded", err, straightErr)
	}
	if !strings.HasPrefix(err.Error(), "nex/dsim run aborted after ") || err.Error() != straightErr.Error() {
		t.Errorf("abort messages differ:\n resume: %v\n run:    %v", err, straightErr)
	}
}
