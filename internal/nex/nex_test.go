package nex

import (
	"math"
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/app"
	"nexsim/internal/hostkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

const (
	us = vclock.Microsecond
	ms = vclock.Millisecond
)

// exactCfg returns a config with the error model disabled, for tests
// that check exact epoch arithmetic.
func exactCfg() Config {
	return Config{
		Epoch:      1 * us,
		CalSigma:   -1, // sentinel: see newExact
		RefillLoss: -1,
	}
}

func newExact(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.CalSigma == -1 {
		cfg.CalSigma = 1e-12
	}
	if cfg.RefillLoss == -1 {
		cfg.RefillLoss = 1 // 1ps: negligible
	}
	e := New(cfg)
	e.calBias = 1.0
	return e
}

func TestSingleThreadComputeEpochAccounting(t *testing.T) {
	e := newExact(t, exactCfg())
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(10 * us)
	}})
	// 10us of compute at 1us epochs: exactly 10us (epochs tile segments).
	if res < 10*us || res > 10*us+us/100 {
		t.Fatalf("SimTime = %v, want ~10us", res)
	}
	// 10 compute epochs plus the epoch in which the exit is observed.
	if e.Stats.Epochs != 11 {
		t.Fatalf("Epochs = %d, want 11", e.Stats.Epochs)
	}
}

func TestErrorModelProducesSmallBias(t *testing.T) {
	// With the default error model, simulated time deviates from native
	// by a few percent — the paper's single-thread NEX error band.
	e := New(Config{Epoch: 1 * us, Seed: 7})
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(10 * ms)
	}})
	err := math.Abs(res.Seconds()-(10*ms).Seconds()) / (10 * ms).Seconds()
	if err == 0 {
		t.Fatal("error model inert")
	}
	if err > 0.12 {
		t.Fatalf("single-thread error %.1f%% implausibly large", err*100)
	}
}

func TestErrorModelDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) vclock.Duration {
		e := New(Config{Epoch: 1 * us, Seed: seed})
		return e.Run(app.Program{Main: func(env app.Env) {
			env.ComputeFor(1 * ms)
		}})
	}
	if run(1) != run(1) {
		t.Fatal("same seed differs")
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produce identical bias (suspicious)")
	}
}

func TestUnparkQuantizedToEpoch(t *testing.T) {
	// Thread B waits on a queue; A pushes at t=2.5us (mid-epoch). B must
	// resume at the NEXT epoch boundary, not at 2.5us — the EBS
	// cross-epoch synchronization skew.
	q := &app.Queue{}
	var popped vclock.Time
	e := newExact(t, exactCfg())
	e.Run(app.Program{Main: func(env app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		env.Spawn("consumer", func(we app.Env) {
			q.Pop(we)
			popped = we.Now()
			wg.Done(we)
		})
		env.Spawn("producer", func(we app.Env) {
			we.ComputeFor(2500 * vclock.Nanosecond)
			q.Push(we, 1)
			wg.Done(we)
		})
		wg.Wait(env)
	}})
	// Producer pushes at 2.5us inside epoch [2,3)us... but threads spawn
	// at the next epoch after main's first epoch, so just check epoch
	// alignment: the consumer's wake time is an epoch boundary strictly
	// after the push.
	if popped == 0 {
		t.Fatal("consumer never ran")
	}
	if rem := int64(popped) % int64(us); rem != 0 {
		t.Fatalf("consumer resumed mid-epoch at %v", popped)
	}
}

func TestMutexStillCorrectUnderEBS(t *testing.T) {
	var mu app.Mutex
	counter := 0
	e := newExact(t, exactCfg())
	e.Run(app.Program{Main: func(env app.Env) {
		var wg app.WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			env.Spawn("w", func(we app.Env) {
				for j := 0; j < 50; j++ {
					mu.Lock(we)
					c := counter
					we.ComputeFor(100 * vclock.Nanosecond)
					counter = c + 1
					mu.Unlock(we)
				}
				wg.Done(we)
			})
		}
		wg.Wait(env)
	}})
	if counter != 200 {
		t.Fatalf("counter = %d, want 200 (mutual exclusion broken)", counter)
	}
}

func TestEpochDurationSpeedAccuracyTradeoff(t *testing.T) {
	// Larger epochs => fewer epochs (lower engine cost). With barriers,
	// larger epochs => more error. This is Table 4's shape.
	barrierHeavy := func(epoch vclock.Duration) (vclock.Duration, int64) {
		b := &app.Barrier{N: 4}
		e := newExact(t, Config{Epoch: epoch, CalSigma: -1, RefillLoss: -1})
		e.calBias = 1.0
		res := e.Run(app.Program{Main: func(env app.Env) {
			var wg app.WaitGroup
			wg.Add(4)
			for i := 0; i < 4; i++ {
				env.Spawn("w", func(we app.Env) {
					for j := 0; j < 50; j++ {
						we.ComputeFor(3 * us)
						b.Wait(we)
					}
					wg.Done(we)
				})
			}
			wg.Wait(env)
		}})
		return res, e.Stats.Epochs
	}
	t1, e1 := barrierHeavy(1 * us)
	t4, e4 := barrierHeavy(4 * us)
	if e4 >= e1 {
		t.Fatalf("larger epoch did not reduce epoch count: %d vs %d", e4, e1)
	}
	if t4 <= t1 {
		t.Fatalf("larger epoch did not increase simulated time under barriers: %v vs %v", t4, t1)
	}
}

func TestOversubscriptionUsesPolicy(t *testing.T) {
	e := newExact(t, Config{Epoch: 1 * us, VirtualCores: 2, CalSigma: -1, RefillLoss: -1})
	e.calBias = 1.0
	res := e.Run(app.Program{Main: func(env app.Env) {
		var wg app.WaitGroup
		wg.Add(4)
		for i := 0; i < 4; i++ {
			env.Spawn("w", func(we app.Env) {
				we.ComputeFor(100 * us)
				wg.Done(we)
			})
		}
		wg.Wait(env)
	}})
	// 4 threads, 2 virtual cores, 100us each: ~200us total.
	if res < 195*us || res > 215*us {
		t.Fatalf("SimTime = %v, want ~200us", res)
	}
}

func TestJumpTZeroVirtualCost(t *testing.T) {
	e := newExact(t, exactCfg())
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(5 * us)
		env.JumpT(func() { env.ComputeFor(100 * ms) })
		env.ComputeFor(5 * us)
	}})
	if res > 11*us {
		t.Fatalf("SimTime = %v; JumpT leaked virtual time", res)
	}
}

func TestCompressT(t *testing.T) {
	e := newExact(t, exactCfg())
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.CompressT(10, func() { env.ComputeFor(100 * us) })
	}})
	if res < 10*us || res > 11*us {
		t.Fatalf("SimTime = %v, want ~10us", res)
	}
}

func TestSlipStreamReducesEpochs(t *testing.T) {
	run := func(slip bool) int64 {
		e := newExact(t, exactCfg())
		e.Run(app.Program{Main: func(env app.Env) {
			body := func() { env.ComputeFor(5 * ms) }
			if slip {
				env.SlipStream(body)
			} else {
				body()
			}
		}})
		return e.Stats.Epochs
	}
	normal, slipped := run(false), run(true)
	if slipped >= normal/100 {
		t.Fatalf("SlipStream epochs = %d vs normal %d; expected ~1000x fewer", slipped, normal)
	}
}

// attach binds the shared fake device (tasks complete after a fixed busy
// time; used to test trap quantization and sync modes) at 0x8000_0000.
func attach(e *Engine, d *acceltest.Device) {
	b := &hostkit.Binding{Device: d, MMIOBase: 0x8000_0000, MMIOSize: 4096,
		MMIOCost: 850 * vclock.Nanosecond}
	d.Host = e.HostFor(b)
	e.Attach(b)
}

func TestTrapQuantization(t *testing.T) {
	e := newExact(t, exactCfg())
	dev := &acceltest.Device{Busy: 20 * us}
	attach(e, dev)
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		for env.MMIORead(0x8000_0000) == 0 {
			env.Sleep(2 * us)
		}
	}})
	if e.Stats.Traps == 0 {
		t.Fatal("no traps recorded")
	}
	// Polling loop: ~20us busy / 2us polls => ~7+ traps, and the total
	// time exceeds the exact 20us because every trap burns epoch
	// remainder + MMIO cost.
	if res < 20*us {
		t.Fatalf("SimTime = %v < busy time", res)
	}
	if res > 45*us {
		t.Fatalf("SimTime = %v, trap overhead implausible", res)
	}
}

func TestHybridDeliversIRQs(t *testing.T) {
	e := newExact(t, Config{Epoch: 1 * us, Mode: Hybrid, SyncInterval: 10 * us,
		CalSigma: -1, RefillLoss: -1})
	e.calBias = 1.0
	dev := &acceltest.Device{Busy: 33 * us, IRQ: true}
	attach(e, dev)
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		env.WaitIRQ(0x8000_0000)
	}})
	// Doorbell ~t=0, busy 33us, IRQ raised at ~33us, delivered at the
	// next 10us interval boundary: 40us.
	if res < 33*us || res > 52*us {
		t.Fatalf("SimTime = %v, want IRQ delivered at interval boundary after 33us", res)
	}
	if e.Stats.IRQs != 1 {
		t.Fatalf("IRQs = %d", e.Stats.IRQs)
	}
	if e.Stats.Syncs == 0 {
		t.Fatal("hybrid mode performed no periodic syncs")
	}
}

func TestEagerSyncsEveryEpoch(t *testing.T) {
	e := newExact(t, Config{Epoch: 1 * us, Mode: Eager, CalSigma: -1, RefillLoss: -1})
	e.calBias = 1.0
	dev := &acceltest.Device{Busy: 5 * us}
	attach(e, dev)
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(10 * us)
	}})
	if e.Stats.Syncs < 9 {
		t.Fatalf("Syncs = %d, want one per epoch", e.Stats.Syncs)
	}
	_ = res
}

func TestTickModeReducesTraps(t *testing.T) {
	run := func(tick bool) int64 {
		e := newExact(t, Config{Epoch: 1 * us, TickMode: tick, CalSigma: -1, RefillLoss: -1})
		e.calBias = 1.0
		attach(e, &acceltest.Device{Busy: us})
		region := e.Mem().Alloc("taskbuf", 4096)
		e.Run(app.Program{Main: func(env app.Env) {
			var buf [8]byte
			for i := 0; i < 16; i++ {
				env.TaskWrite(region.Base+mem.Addr(i*8), buf[:])
			}
			env.MMIOWrite(0x8000_0000, 1) // the doorbell is the sync point
		}})
		return e.Stats.Traps
	}
	noTick, withTick := run(false), run(true)
	if withTick != 1 {
		t.Fatalf("tick mode traps = %d, want 1", withTick)
	}
	if noTick != 17 {
		t.Fatalf("non-tick traps = %d, want 17 (16 writes + doorbell)", noTick)
	}
}

func TestUnderprovisioningAddsError(t *testing.T) {
	run := func(phys int) vclock.Duration {
		e := New(Config{Epoch: 1 * us, VirtualCores: 16, PhysicalCores: phys, Seed: 3})
		return e.Run(app.Program{Main: func(env app.Env) {
			var wg app.WaitGroup
			wg.Add(16)
			for i := 0; i < 16; i++ {
				env.Spawn("w", func(we app.Env) {
					we.ComputeFor(1 * ms)
					wg.Done(we)
				})
			}
			wg.Wait(env)
		}})
	}
	full, under := run(16), run(1)
	errFull := math.Abs(full.Seconds()-0.001) / 0.001
	errUnder := math.Abs(under.Seconds()-0.001) / 0.001
	if errUnder <= errFull {
		t.Fatalf("underprovisioning did not increase error: %.2f%% vs %.2f%%",
			errUnder*100, errFull*100)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() vclock.Duration {
		var mu app.Mutex
		e := New(Config{Epoch: 1 * us, Seed: 42})
		return e.Run(app.Program{Main: func(env app.Env) {
			var wg app.WaitGroup
			wg.Add(3)
			for i := 0; i < 3; i++ {
				env.Spawn("w", func(we app.Env) {
					for j := 0; j < 30; j++ {
						mu.Lock(we)
						we.ComputeFor(500 * vclock.Nanosecond)
						mu.Unlock(we)
					}
					wg.Done(we)
				})
			}
			wg.Wait(env)
		}})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSleepQuantization(t *testing.T) {
	e := newExact(t, exactCfg())
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.Sleep(2500 * vclock.Nanosecond)
		env.ComputeFor(1 * us)
	}})
	// Sleep wakes at 2.5us; the next epoch starts there (idle jump), so
	// total ~3.5us.
	if res < 3*us || res > 4*us {
		t.Fatalf("SimTime = %v", res)
	}
	if e.Stats.IdleJumps == 0 {
		t.Fatal("sleep did not use the idle-jump path")
	}
}

func TestSlipStreamExitTruncatesEpoch(t *testing.T) {
	// Work after a SlipStream region must not wait for the 20ms slip
	// epoch to elapse — exiting forces an immediate reschedule (§3.4).
	e := newExact(t, exactCfg())
	res := e.Run(app.Program{Main: func(env app.Env) {
		env.SlipStream(func() { env.ComputeFor(100 * us) })
		env.ComputeFor(5 * us)
	}})
	if res > 110*us {
		t.Fatalf("SimTime = %v; slip epoch leaked into post-region time", res)
	}
}

func TestIRQAtTruncatedEpochEndWakesThere(t *testing.T) {
	// Two threads run a 20ms slip epoch. One reads the device inside its
	// region (the interrupt is raised at that trap), the other leaves
	// slip mode, which truncates the epoch at a few µs. The interrupt is
	// delivered at the truncated end, and its waiter must wake there,
	// not at the end of the untruncated epoch.
	e := newExact(t, exactCfg())
	dev := &acceltest.Device{Busy: 2 * us, IRQ: true}
	attach(e, dev)
	var woke vclock.Time
	e.Run(app.Program{Main: func(env app.Env) {
		var wg app.WaitGroup
		wg.Add(2)
		env.Spawn("waiter", func(ce app.Env) {
			ce.WaitIRQ(0x8000_0000)
			woke = ce.Now()
			wg.Done(ce)
		})
		env.Spawn("reader", func(ce app.Env) {
			ce.SlipStream(func() {
				ce.ComputeFor(3 * us)
				ce.MMIORead(0x8000_0000)
			})
			wg.Done(ce)
		})
		env.MMIOWrite(0x8000_0000, 1)
		env.SlipStream(func() { env.ComputeFor(6 * us) })
		wg.Wait(env)
	}})
	if e.Stats.IRQs != 1 {
		t.Fatalf("IRQs = %d, want 1", e.Stats.IRQs)
	}
	if woke == 0 || woke > vclock.Time(20*us) {
		t.Fatalf("the waiter woke at %v, want the truncated epoch's end, a few µs in", woke)
	}
}

func TestStickyIRQNoLostWakeup(t *testing.T) {
	// The interrupt fires while the thread is between its status check
	// and WaitIRQ; the latched interrupt must still wake it.
	e := newExact(t, Config{Epoch: 1 * us, Mode: Hybrid, SyncInterval: 5 * us,
		CalSigma: -1, RefillLoss: -1})
	e.calBias = 1.0
	dev := &acceltest.Device{Busy: 3 * us, IRQ: true}
	attach(e, dev)
	completed := false
	e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		// Burn time past the device's completion so the IRQ is raised
		// and delivered before we wait.
		env.ComputeFor(40 * us)
		if env.MMIORead(0x8000_0000) != 1 {
			t.Error("device not done")
		}
		env.WaitIRQ(0x8000_0000) // must consume the latched interrupt, not hang
		completed = true
	}})
	if !completed {
		t.Fatal("WaitIRQ hung on a latched interrupt")
	}
	if e.Stats.IRQs != 1 {
		t.Fatalf("IRQs = %d, want the latched interrupt counted once", e.Stats.IRQs)
	}
}

func TestEagerModeMatchesLazyAccuracy(t *testing.T) {
	run := func(mode SyncMode) vclock.Duration {
		e := newExact(t, Config{Epoch: 1 * us, Mode: mode, CalSigma: -1, RefillLoss: -1})
		e.calBias = 1.0
		dev := &acceltest.Device{Busy: 10 * us}
		attach(e, dev)
		return e.Run(app.Program{Main: func(env app.Env) {
			env.MMIOWrite(0x8000_0000, 1)
			for env.MMIORead(0x8000_0000) == 0 {
				env.Sleep(2 * us)
			}
		}})
	}
	lazy, eager := run(Lazy), run(Eager)
	if lazy != eager {
		t.Fatalf("lazy %v != eager %v (sync mode must not change timing here)", lazy, eager)
	}
}

// regLog is the fake device with the host's catch-up observed at each
// register access: lastAdvance records the target of the Advance the
// device last received before the access reached it.
type regLog struct {
	*acceltest.Device
	lastAdvance []vclock.Time
}

func (d *regLog) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.lastAdvance = append(d.lastAdvance, lastAdvance(d.Calls))
	return d.Device.RegRead(at, off)
}

// lastAdvance returns the target of the last Advance in calls, or
// vclock.Never if there is none.
func lastAdvance(calls []acceltest.Call) vclock.Time {
	for i := len(calls) - 1; i >= 0; i-- {
		if calls[i].Op == 'A' {
			return calls[i].At
		}
	}
	return vclock.Never
}

// TestTrapCatchesDevicesUp: a trap advances the device complex to the
// trap's own time before the access runs — the thread's cursor partway
// into its epoch, not the epoch's start — for a register read and for a
// task-buffer access alike (TickMode off, so the access traps).
func TestTrapCatchesDevicesUp(t *testing.T) {
	e := newExact(t, exactCfg())
	dev := &regLog{Device: &acceltest.Device{}}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096}
	dev.Host = e.HostFor(b)
	e.Attach(b)
	region := e.Mem().Alloc("taskbuf", 4096)
	// Each access comes 300 ns of compute into an epoch; the engine's
	// clock e.now holds the epoch's start while its threads run.
	var readAt, readEpoch, taskAt, taskEpoch vclock.Time
	var taskCalls []acceltest.Call
	e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(300 * vclock.Nanosecond)
		readAt, readEpoch = env.Now(), e.now
		env.MMIORead(0x8000_0000)
		env.ComputeFor(300 * vclock.Nanosecond)
		taskAt, taskEpoch = env.Now(), e.now
		before := len(dev.Calls)
		var buf [8]byte
		env.TaskWrite(region.Base, buf[:])
		taskCalls = dev.Calls[before:]
	}})
	if readAt <= readEpoch || taskAt <= taskEpoch {
		t.Fatalf("accesses at %v and %v are not inside their epochs (starting %v and %v)",
			readAt, taskAt, readEpoch, taskEpoch)
	}
	if len(dev.lastAdvance) != 1 || dev.lastAdvance[0] != readAt {
		t.Errorf("before the register read at %v the device was last advanced to %v, want %v",
			readAt, dev.lastAdvance, readAt)
	}
	if got := lastAdvance(taskCalls); got != taskAt {
		t.Errorf("the task-buffer trap at %v advanced the device to %v (calls %v), want %v",
			taskAt, got, taskCalls, taskAt)
	}
}
