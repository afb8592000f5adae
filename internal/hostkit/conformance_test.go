package hostkit_test

import (
	"fmt"
	"strings"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/cpu"
	"nexsim/internal/exacthost"
	"nexsim/internal/hostkit"
	"nexsim/internal/nex"
	"nexsim/internal/vclock"
)

// Engine conformance: the same small programs run on every host engine
// and must observe the same Env contract. What legitimately differs
// between engines — when a woken thread resumes, how long a compute
// segment is modelled to take — is kept out of the assertions (they
// check ratios and bounds, not absolute times).

const (
	mmioBase = 0x8000_0000
	unmapped = 0x7000_0000
	irqVec   = 6
)

// host is one engine under test.
type host interface {
	Attach(*hostkit.Binding)
	HostFor(*hostkit.Binding) accel.Host
	Reap()
}

var hosts = []struct {
	name string
	// build returns a fresh engine and its Run reduced to "run prog".
	build func() (host, func(app.Program))
}{
	{"nex", func() (host, func(app.Program)) {
		e := nex.New(nex.Config{Seed: 3})
		return e, func(p app.Program) { e.Run(p) }
	}},
	{"reference", func() (host, func(app.Program)) {
		e := exacthost.New(exacthost.Config{})
		return e, func(p app.Program) { e.Run(p) }
	}},
	{"gem5", func() (host, func(app.Program)) {
		e := exacthost.New(exacthost.Config{Compute: cpu.New(cpu.Config{Clock: 3 * vclock.GHz})})
		return e, func(p app.Program) { e.Run(p) }
	}},
}

// runOn runs main on a fresh engine with one interrupt-raising fake
// device at mmioBase and returns whatever panicked out of Run (nil when
// the run completed). Threads a panic left parked are reaped.
func runOn(build func() (host, func(app.Program)), main app.ThreadFunc) (panicked any) {
	eng, run := build()
	dev := &acceltest.Device{Busy: 1 * us, IRQ: irqVec}
	b := &hostkit.Binding{Device: dev, MMIOBase: mmioBase, MMIOSize: 0x1000}
	dev.Host = eng.HostFor(b)
	eng.Attach(b)
	defer func() {
		if panicked = recover(); panicked != nil {
			eng.Reap()
		}
	}()
	run(app.Program{Name: "conformance", Main: main})
	return nil
}

// elapsed is how much virtual time fn takes on env's thread.
func elapsed(env app.Env, fn func()) vclock.Duration {
	start := env.Now()
	fn()
	return env.Now().Sub(start)
}

func TestEngineConformance(t *testing.T) {
	cases := []struct {
		name string
		// wantPanic, when set, must appear in the value Run panics with;
		// otherwise the run must complete and reach the end of main.
		wantPanic string
		main      func(t *testing.T, env app.Env)
	}{
		{"unmapped MMIO read panics with the address", fmt.Sprintf("MMIO read of unmapped address %#x", unmapped),
			func(t *testing.T, env app.Env) { env.MMIORead(unmapped) }},

		{"unmapped MMIO write panics with the address", fmt.Sprintf("MMIO write of unmapped address %#x", unmapped),
			func(t *testing.T, env app.Env) { env.MMIOWrite(unmapped, 1) }},

		{"CompressT rejects a non-positive factor", "CompressT factor must be positive",
			func(t *testing.T, env app.Env) { env.CompressT(0, func() {}) }},

		{"Unpark before Park makes the next Park return immediately", "",
			func(t *testing.T, env app.Env) {
				env.Unpark(env.Self())
				if d := elapsed(env, env.Park); d != 0 {
					t.Errorf("Park with a pending unpark took %v", d)
				}
			}},

		{"Spawn returns the child and clears Thread.Spawned", "",
			func(t *testing.T, env app.Env) {
				var self *coro.Thread
				var wg app.WaitGroup
				wg.Add(1)
				child := env.Spawn("child", func(ce app.Env) {
					self = ce.Self()
					wg.Done(ce)
				})
				if env.Self().Spawned != nil {
					t.Error("Spawn left Thread.Spawned set")
				}
				wg.Wait(env)
				if child == nil || child != self || child == env.Self() {
					t.Errorf("Spawn returned %v, child saw itself as %v", child, self)
				}
			}},

		{"nested warps unwind when the body panics and recovers", "",
			func(t *testing.T, env app.Env) {
				var inRegion vclock.Duration
				env.CompressT(2, func() {
					func() {
						defer func() { recover() }()
						env.JumpT(func() {
							env.CompressT(5, func() { panic("boom") })
						})
					}()
					// JumpT and the inner CompressT are gone: only the
					// factor of 2 applies. (Still inside JumpT this would
					// take no time; still at factor 10, a fifth of it.)
					inRegion = elapsed(env, func() { env.ComputeFor(200 * us) })
				})
				outside := elapsed(env, func() { env.ComputeFor(200 * us) })
				if ratio := float64(inRegion) / float64(outside); ratio < 0.4 || ratio > 0.6 {
					t.Errorf("compute took %v inside CompressT(2) after the unwind, %v outside (ratio %.2f, want ~0.5)",
						inRegion, outside, ratio)
				}
			}},

		{"a sticky IRQ raised before WaitIRQ is consumed without blocking", "",
			func(t *testing.T, env app.Env) {
				env.MMIOWrite(mmioBase, 1) // task completes (and interrupts) 1us from now
				env.ComputeFor(10 * us)
				if env.MMIORead(mmioBase) != 1 { // every engine has caught the device up by now
					t.Error("task not complete after 10x its busy time")
				}
				// The interrupt found no waiter. NEX delivers at the next
				// epoch boundary, the exact engines consume the latch in
				// place; neither may wait for a second interrupt.
				if d := elapsed(env, func() { env.WaitIRQ(irqVec) }); d > 2*us {
					t.Errorf("WaitIRQ on an already-raised interrupt took %v", d)
				}
			}},
	}
	for _, h := range hosts {
		for _, tc := range cases {
			t.Run(h.name+"/"+tc.name, func(t *testing.T) {
				finished := false
				p := runOn(h.build, func(env app.Env) {
					tc.main(t, env)
					finished = true
				})
				switch {
				case tc.wantPanic == "" && p != nil:
					t.Fatalf("Run panicked: %v", p)
				case tc.wantPanic == "" && !finished:
					t.Fatal("Run returned before main finished")
				case tc.wantPanic != "" && !strings.Contains(fmt.Sprint(p), tc.wantPanic):
					t.Fatalf("Run panicked with %v, want a message containing %q", p, tc.wantPanic)
				}
			})
		}
	}
}
