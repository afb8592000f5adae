package core_test

import (
	"bytes"
	"testing"

	"nexsim/internal/accel/jpeg"
	"nexsim/internal/accel/protoacc"
	"nexsim/internal/accel/vta"
	"nexsim/internal/app"
	"nexsim/internal/core"
	"nexsim/internal/mem"
	"nexsim/internal/nex"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
	"nexsim/internal/xrand"
)

// TestJPEGDriverEndToEnd runs the full stack — driver, traps, fabric,
// DSim decode — under every host engine and verifies the decoded pixels
// land in simulated memory.
func TestJPEGDriverEndToEnd(t *testing.T) {
	img := jpeg.NewImage(64, 48)
	rng := xrand.New(3)
	for i := range img.Pix {
		img.Pix[i] = byte(rng.Intn(256))
	}
	data := jpeg.Encode(img, 85, jpeg.Sub444)
	want, _, err := jpeg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, host := range []core.HostKind{core.HostReference, core.HostNEX, core.HostGem5} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			sys := core.Build(core.Config{
				Host: host, Accel: core.AccelDSim, Model: core.AccelJPEG,
				Cores: 4, Seed: 1,
			})
			src := sys.Ctx.Arena
			dst := sys.Ctx.Arena + 1<<20
			sys.Run(app.Program{Main: func(e app.Env) {
				e.Mem().WriteAt(src, data)
				drv := jpeg.NewDriver(sys.Ctx.MMIO[0], sys.Ctx.TaskBufs[0], 4)
				drv.Submit(e, jpeg.Desc{Src: src, SrcLen: uint32(len(data)), Dst: dst})
				drv.WaitAll(e, 0)
			}})
			got := make([]byte, len(want.Pix))
			sys.Ctx.Mem.ReadAt(dst, got)
			if !bytes.Equal(got, want.Pix) {
				t.Fatal("decoded pixels differ from functional decode")
			}
		})
	}
}

// TestJPEGDriverIRQ exercises the interrupt path end to end through the
// JPEG kit device under every host engine and NEX sync mode, and through
// the RTL device under the reference, gem5 and lazy NEX hosts, which
// then ask an RTL clock for its next event: an IRQ-driven run must
// complete and leave the same decoded pixels in memory as a polling run
// of the same images under the same engine and device. Each host runs
// one device, then two with an interrupt-driven thread each: the first
// thread to wait decodes the larger image, so the interrupts come in
// the opposite order to the waits, and each must wake its own device's
// waiter.
func TestJPEGDriverIRQ(t *testing.T) {
	image := func(w, h int) []byte {
		img := jpeg.NewImage(w, h)
		rng := xrand.New(5)
		for i := range img.Pix {
			img.Pix[i] = byte(rng.Intn(256))
		}
		return jpeg.Encode(img, 80, jpeg.Sub420)
	}
	small, large := image(32, 32), image(64, 64)

	nexCfg := func(mode nex.SyncMode) core.Config {
		cfg := core.Config{Host: core.HostNEX}
		cfg.NEX.Mode = mode
		cfg.NEX.SyncInterval = 10 * vclock.Microsecond
		return cfg
	}
	rtl := func(cfg core.Config) core.Config {
		cfg.Accel = core.AccelRTL
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"reference", core.Config{Host: core.HostReference}},
		{"gem5", core.Config{Host: core.HostGem5}},
		{"nex-lazy", nexCfg(nex.Lazy)},
		{"nex-eager", nexCfg(nex.Eager)},
		{"nex-hybrid", nexCfg(nex.Hybrid)},
		{"reference-rtl", rtl(core.Config{Host: core.HostReference})},
		{"gem5-rtl", rtl(core.Config{Host: core.HostGem5})},
		{"nex-lazy-rtl", rtl(nexCfg(nex.Lazy))},
	} {
		// decode runs one thread per bitstream, thread i driving device
		// i, and returns the decoded pixels of all of them and the
		// order in which the threads finished.
		decode := func(t *testing.T, irq bool, streams [][]byte) (pix []byte, finished []int) {
			cfg := tc.cfg
			cfg.Model, cfg.Devices, cfg.Cores, cfg.Seed = core.AccelJPEG, len(streams), 4, 1
			sys := core.Build(cfg)
			defer sys.Release()
			dst := func(i int) mem.Addr { return sys.Ctx.Arena + mem.Addr(2*i+1)<<20 }
			sys.Run(app.Program{Main: func(e app.Env) {
				var wg app.WaitGroup
				wg.Add(len(streams))
				for i, data := range streams {
					e.Spawn("decode", func(we app.Env) {
						src := sys.Ctx.Arena + mem.Addr(2*i)<<20
						we.Mem().WriteAt(src, data)
						drv := jpeg.NewDriver(sys.Ctx.MMIO[i], sys.Ctx.TaskBufs[i], 4)
						if irq {
							drv.EnableIRQ(we)
						}
						drv.Submit(we, jpeg.Desc{Src: src, SrcLen: uint32(len(data)), Dst: dst(i)})
						if irq {
							drv.WaitAllIRQ(we)
						} else {
							drv.WaitAll(we, 0)
						}
						finished = append(finished, i)
						wg.Done(we)
					})
				}
				wg.Wait(e)
			}})
			if len(finished) != len(streams) {
				t.Fatalf("irq=%v: %d of %d waits completed", irq, len(finished), len(streams))
			}
			for i, data := range streams {
				img, _, err := jpeg.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(img.Pix))
				sys.Ctx.Mem.ReadAt(dst(i), got)
				pix = append(pix, got...)
			}
			return pix, finished
		}
		check := func(t *testing.T, streams ...[]byte) []int {
			polled, _ := decode(t, false, streams)
			got, finished := decode(t, true, streams)
			if bytes.Equal(polled, make([]byte, len(polled))) {
				t.Fatal("polling run decoded nothing")
			}
			if !bytes.Equal(got, polled) {
				t.Fatal("IRQ run's decoded pixels differ from the polling run's")
			}
			return finished
		}
		t.Run(tc.name, func(t *testing.T) {
			check(t, small)
			t.Run("two-devices", func(t *testing.T) {
				if finished := check(t, large, small); finished[0] != 1 {
					t.Fatalf("threads finished in order %v; the small image's thread must finish first", finished)
				}
			})
		})
	}
}

// TestVTADriverEndToEnd runs a compiled GEMM through the driver under
// NEX and checks the result against the CPU reference.
func TestVTADriverEndToEnd(t *testing.T) {
	task := vta.GemmTask{M: 32, N: 16, K: 24, Shift: 6, ReLU: true}
	rng := xrand.New(9)
	a := make([]int8, task.M*task.K)
	bm := make([]int8, task.N*task.K)
	for i := range a {
		a[i] = int8(rng.Intn(256) - 128)
	}
	for i := range bm {
		bm[i] = int8(rng.Intn(256) - 128)
	}

	sys := core.Build(core.Config{
		Host: core.HostNEX, Accel: core.AccelDSim, Model: core.AccelVTA,
		Cores: 4, Seed: 1,
	})
	task.A = sys.Ctx.Arena
	task.B = sys.Ctx.Arena + 1<<20
	task.C = sys.Ctx.Arena + 2<<20
	sys.Run(app.Program{Main: func(e app.Env) {
		vta.StoreOperands(e.Mem(), task, a, bm, nil)
		drv := vta.NewDriver(sys.Ctx.MMIO[0], sys.Ctx.TaskBufs[0], sys.Ctx.Arena+4<<20, 8)
		prog, err := vta.Compile(task)
		if err != nil {
			panic(err)
		}
		drv.Launch(e, prog)
		drv.WaitAll(e, 0)
	}})

	want := vta.ReferenceGemm(task, a, bm, nil)
	got := make([]byte, len(want))
	sys.Ctx.Mem.ReadAt(task.C, got)
	for i := range want {
		if int8(got[i]) != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, int8(got[i]), want[i])
		}
	}
}

// TestProtoaccBatchOutOfOrderSizes verifies the addressed-store design:
// wildly different task sizes in one batch must each land at their own
// output address even if they complete out of submission order.
func TestProtoaccBatchOutOfOrderSizes(t *testing.T) {
	big := &protoacc.MessageDesc{Name: "big", Fields: []protoacc.FieldDesc{
		{Number: 1, Kind: protoacc.KindBytes},
	}}
	small := &protoacc.MessageDesc{Name: "small", Fields: []protoacc.FieldDesc{
		{Number: 1, Kind: protoacc.KindInt64},
	}}

	sys := core.Build(core.Config{
		Host: core.HostReference, Accel: core.AccelDSim, Model: core.AccelProtoacc,
		Cores: 4, Seed: 1,
	})
	dev := sys.Ctx.Devices[0].(*protoacc.Device)
	dev.RegisterSchema(1, big)
	dev.RegisterSchema(2, small)

	bigMsg := protoacc.NewMessage(big)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	bigMsg.Values[0] = protoacc.Value{Bytes: payload, Set: true}
	smallMsg := protoacc.NewMessage(small)
	smallMsg.Values[0] = protoacc.Value{Int: 777, Set: true}

	var outBig, outSmall mem.Addr
	sys.Run(app.Program{Main: func(e app.Env) {
		layBig := protoacc.Store(e.Mem(), sys.Ctx.Arena, bigMsg)
		laySmall := protoacc.Store(e.Mem(), sys.Ctx.Arena+1<<20, smallMsg)
		outBig = sys.Ctx.Arena + 2<<20
		outSmall = sys.Ctx.Arena + 3<<20
		drv := protoacc.NewDriver(sys.Ctx.MMIO[0], sys.Ctx.TaskBufs[0], 16)
		drv.BatchSize = 2
		// The big task is submitted first but takes far longer; the small
		// one completes first.
		drv.Submit(e, protoacc.Desc{Root: layBig.Root, Out: outBig, Schema: 1})
		drv.Submit(e, protoacc.Desc{Root: laySmall.Root, Out: outSmall, Schema: 2})
		drv.WaitAll(e, 0)
	}})

	checkWire := func(what string, addr mem.Addr, want *protoacc.Message) {
		var lenb [4]byte
		sys.Ctx.Mem.ReadAt(addr, lenb[:])
		n := uint32(lenb[0]) | uint32(lenb[1])<<8 | uint32(lenb[2])<<16 | uint32(lenb[3])<<24
		wire := make([]byte, n)
		sys.Ctx.Mem.ReadAt(addr+4, wire)
		if !bytes.Equal(wire, protoacc.Marshal(want)) {
			t.Fatalf("%s task's output at %#x is not its message's wire form", what, uint64(addr))
		}
	}
	checkWire("big", outBig, bigMsg)
	checkWire("small", outSmall, smallMsg)
}

// TestTraceRecordsAccelAndThreads checks the coarse-grained trace output
// on a full run.
func TestTraceRecordsAccelAndThreads(t *testing.T) {
	rec := trace.New()
	b, _ := benchAndBuild(t, "jpeg-decode")
	cfg := core.Config{
		Host: core.HostNEX, Accel: core.AccelDSim, Model: b.Model,
		Devices: b.Devices, Cores: 8, Seed: 42, Trace: rec,
	}
	sys := core.Build(cfg)
	sys.Run(b.Build(&sys.Ctx))
	totals := rec.Totals()
	if len(totals) == 0 {
		t.Fatal("no trace recorded")
	}
	var compute vclock.Duration
	for _, kinds := range totals {
		compute += kinds[trace.Compute]
	}
	if compute <= 0 {
		t.Fatal("no compute time attributed")
	}
}

// TestChannelModeMatchesTight verifies the SimBricks channel is
// semantically transparent end to end: identical simulated time.
func TestChannelModeMatchesTight(t *testing.T) {
	b, _ := benchAndBuild(t, "vta-matmul")
	runWith := func(ch bool) vclock.Duration {
		sys := core.Build(core.Config{
			Host: core.HostNEX, Accel: core.AccelDSim, Model: b.Model,
			Devices: b.Devices, Cores: 8, Seed: 42, UseChannel: ch,
		})
		return sys.Run(b.Build(&sys.Ctx)).SimTime
	}
	tight, chan_ := runWith(false), runWith(true)
	if tight != chan_ {
		t.Fatalf("channel changed simulated time: %v vs %v", tight, chan_)
	}
}

// TestDMAL2FasterOrEqual checks the DMA-target knob plumbs through.
func TestDMAL2FasterOrEqual(t *testing.T) {
	b, _ := benchAndBuild(t, "vta-resnet18")
	runWith := func(lvl core.DMALevel) vclock.Duration {
		sys := core.Build(core.Config{
			Host: core.HostReference, Accel: core.AccelDSim, Model: b.Model,
			Devices: b.Devices, Cores: 8, Seed: 42, DMATarget: lvl,
		})
		return sys.Run(b.Build(&sys.Ctx)).SimTime
	}
	llc, l2 := runWith(core.DMALLC), runWith(core.DMAL2)
	if l2 > llc+llc/10 {
		t.Fatalf("L2-served DMA materially slower than LLC: %v vs %v", l2, llc)
	}
}

// benchAndBuild fetches a catalogued benchmark.
func benchAndBuild(t *testing.T, name string) (workloads.Bench, error) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b, err
}

// TestMultiAccelContention: multiple accelerators DMA-ing concurrently
// contend in the shared LLC/DRAM (paper §7: "NEX does simulate
// contention among multiple accelerators"): per-task busy time grows
// when 8 devices run the same tasks simultaneously.
func TestMultiAccelContention(t *testing.T) {
	perTaskBusy := func(devices int) vclock.Duration {
		b, _ := benchAndBuild(t, "jpeg-decode")
		_ = b
		sys := core.Build(core.Config{
			Host: core.HostReference, Accel: core.AccelDSim,
			Model: core.AccelJPEG, Devices: devices, Cores: 16, Seed: 42,
		})
		img := jpeg.NewImage(96, 96)
		rng := xrand.New(5)
		for i := range img.Pix {
			img.Pix[i] = byte(rng.Intn(256)) // noisy: large bitstream, heavy DMA
		}
		data := jpeg.Encode(img, 92, jpeg.Sub444)
		src := sys.Ctx.Arena
		sys.Run(app.Program{Main: func(e app.Env) {
			e.Mem().WriteAt(src, data)
			var wg app.WaitGroup
			wg.Add(devices)
			for d := 0; d < devices; d++ {
				d := d
				e.Spawn("w", func(we app.Env) {
					drv := jpeg.NewDriver(sys.Ctx.MMIO[d], sys.Ctx.TaskBufs[d], 4)
					drv.Submit(we, jpeg.Desc{Src: src, SrcLen: uint32(len(data)),
						Dst: src + mem.Addr(1+d)<<20})
					drv.WaitAll(we, 0)
					wg.Done(we)
				})
			}
			wg.Wait(e)
		}})
		var busy vclock.Duration
		for _, dev := range sys.Ctx.Devices {
			busy += dev.Stats().BusyTime
		}
		return busy / vclock.Duration(devices)
	}
	single := perTaskBusy(1)
	eight := perTaskBusy(8)
	if eight <= single {
		t.Fatalf("no contention visible: 1 dev %v, 8 devs %v per task", single, eight)
	}
}
