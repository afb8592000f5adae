package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nexsim/internal/core"
	"nexsim/internal/interconnect"
	"nexsim/internal/nex"
	"nexsim/internal/workloads"
)

// buildSys assembles a system + program for one bench and config shaper.
func buildSys(t *testing.T, bench string, shape func(*core.Config)) (*core.System, func() core.Result, string) {
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
	prog := b.Build(&sys.Ctx)
	return sys, func() core.Result { return sys.Run(prog) }, bench
}

// checkpointOf runs the prefix on a fresh system and returns its blob.
func checkpointOf(t *testing.T, bench string, shape func(*core.Config)) []byte {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	if _, completed := sys.RunPrefix(prog); completed {
		t.Fatalf("%s: prefix ran to completion", bench)
	}
	blob, err := sys.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", bench, err)
	}
	return blob
}

// resumeFrom restores blob into a fresh system and runs it out.
func resumeFrom(t *testing.T, blob []byte, bench string, shape func(*core.Config)) core.Result {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	if shape != nil {
		shape(&cfg)
	}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
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
// accelerator family, on a multi-device bench, and under the eager and
// hybrid sync modes, which advance the idle devices before the halt.
// The blob carries no device state, so each case also pins that
// re-clocking freshly built devices to the halt time rebuilds them.
func TestCheckpointResumeMatchesRun(t *testing.T) {
	eager := func(c *core.Config) { c.NEX.Mode = nex.Eager }
	hybrid := func(c *core.Config) { c.NEX.Mode = nex.Hybrid }
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, straight, _ := buildSys(t, tc.bench, tc.shape)
			want := straight()
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
		_, straight, _ := buildSys(t, bench, v.shape)
		want := straight()
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

// restoreTarget builds a fresh system + program and returns a closure
// that attempts to restore a (possibly damaged) blob into it.
func restoreTarget(t *testing.T, bench string) func([]byte) error {
	t.Helper()
	b, _ := workloads.ByName(bench)
	cfg := core.Config{Host: core.HostNEX, Accel: core.AccelDSim,
		Model: b.Model, Devices: b.Devices, Cores: 16, Seed: 42}
	sys := core.Build(cfg)
	prog := b.Build(&sys.Ctx)
	return func(blob []byte) error { return sys.RestoreCheckpoint(blob, prog) }
}

// TestRestoreCorruptBlob: restoring a damaged checkpoint must fail with
// an error, never panic or silently accept. Truncations, header damage
// and framing damage must all be detected.
func TestRestoreCorruptBlob(t *testing.T) {
	blob := checkpointOf(t, "vta-resnet18", nil)
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "WRONG!")
			return c
		}},
		{"truncated-header", func(b []byte) []byte { return b[:4] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-one", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing-garbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xDE, 0xAD)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := restoreTarget(t, "vta-resnet18")
			if err := restore(tc.mangle(blob)); err == nil {
				t.Fatal("corrupt blob restored without error")
			}
		})
	}
}

// TestRestoreBitFlippedBlob sweeps single-bit flips across the blob:
// every attempt must return normally (error or not) — a panic anywhere
// fails the test. Flips in payload bytes may decode "successfully" into
// different-but-well-formed state; that is acceptable (blobs only come
// from the process's own in-memory store, so integrity is not the
// decoder's job), crashing is not.
func TestRestoreBitFlippedBlob(t *testing.T) {
	blob := checkpointOf(t, "vta-resnet18", nil)
	// Stride through the blob so the test stays fast on large snapshots.
	stride := len(blob)/97 + 1
	for off := 0; off < len(blob); off += stride {
		c := append([]byte(nil), blob...)
		c[off] ^= 0x10
		restore := restoreTarget(t, "vta-resnet18")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at offset %d: restore panicked: %v", off, r)
				}
			}()
			_ = restore(c)
		}()
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
// TryRun's contract — the same structured error, engine reaped.
func TestTryResumeBudget(t *testing.T) {
	const bench = "jpeg-decode"
	budget := func(c *core.Config) { c.Budget.MaxEpochs = 1 }
	b, _ := workloads.ByName(bench)

	sys, _, _ := buildSys(t, bench, budget)
	_, straightErr := sys.TryRun(b.Build(&sys.Ctx))

	sys, _, _ = buildSys(t, bench, budget)
	if err := sys.RestoreCheckpoint(checkpointOf(t, bench, nil), b.Build(&sys.Ctx)); err != nil {
		t.Fatal(err)
	}
	_, err := sys.TryResume()
	if !errors.Is(err, core.ErrBudgetExceeded) || !errors.Is(straightErr, core.ErrBudgetExceeded) {
		t.Fatalf("TryResume err = %v, TryRun err = %v; want both ErrBudgetExceeded", err, straightErr)
	}
	const prefix = "nex/dsim run aborted after "
	if !strings.HasPrefix(err.Error(), prefix) || !strings.HasPrefix(straightErr.Error(), prefix) {
		t.Errorf("abort messages differ in form:\n resume: %v\n run:    %v", err, straightErr)
	}
}
