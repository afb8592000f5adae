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

// runOn runs main on a fresh engine with dev attached at mmioBase and
// returns whatever panicked out of Run (nil when the run completed).
// Threads a panic left parked are reaped.
func runOn(build func() (host, func(app.Program)), dev *acceltest.Device, main app.ThreadFunc) (panicked any) {
	eng, run := build()
	b := &hostkit.Binding{Device: dev, MMIOBase: mmioBase, MMIOSize: 0x1000}
	dev.Host = eng.HostFor(b)
	eng.Attach(b)
	defer func() {
		if panicked = recover(); panicked != nil {
			eng.Reap()
		}
	}()
	run(app.Program{Main: main})
	return nil
}

// elapsed is how much virtual time fn takes on env's thread.
func elapsed(env app.Env, fn func()) vclock.Duration {
	start := env.Now()
	fn()
	return env.Now().Sub(start)
}

func TestEngineConformance(t *testing.T) {
	var dev *acceltest.Device // the device of the run in progress
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

		{"two Unparks before a Park leave one pending wake", "",
			func(t *testing.T, env app.Env) {
				self := env.Self()
				env.Unpark(self)
				env.Unpark(self)
				env.Park() // consumes the one pending wake
				env.Spawn("waker", func(ce app.Env) {
					ce.Sleep(10 * us)
					ce.Unpark(self)
				})
				if d := elapsed(env, env.Park); d < 10*us {
					t.Errorf("the second Park returned after %v, before the waker's Unpark 10us later", d)
				}
			}},

		{"a thread woken by its interrupt is not parked", "",
			func(t *testing.T, env app.Env) {
				env.MMIOWrite(mmioBase, 1) // task completes (and interrupts) 1us from now
				env.WaitIRQ(mmioBase)
				env.Unpark(env.Self())
				if d := elapsed(env, env.Park); d != 0 {
					t.Errorf("Park after a self-Unpark took %v", d)
				}
			}},

		{"an Unpark takes a thread off the interrupt wait list", "",
			func(t *testing.T, env app.Env) {
				var woke vclock.Time
				var wg app.WaitGroup
				wg.Add(1)
				w := env.Spawn("waiter", func(ce app.Env) {
					ce.WaitIRQ(mmioBase) // ended by main's first Unpark
					ce.Park()            // must sleep through the interrupt
					woke = ce.Now()
					wg.Done(ce)
				})
				env.Sleep(10 * us)
				env.Unpark(w)
				env.Sleep(10 * us)
				env.MMIOWrite(mmioBase, 1) // task completes (and interrupts) 1us from now
				env.ComputeFor(20 * us)
				env.MMIORead(mmioBase) // every engine has delivered the interrupt by the next boundary
				env.ComputeFor(20 * us)
				unparked := env.Now()
				env.Unpark(w)
				wg.Wait(env)
				if woke < unparked {
					t.Errorf("the waiter left its Park at %v, before main's Unpark at %v", woke, unparked)
				}
			}},

		{"Spawn returns the child", "",
			func(t *testing.T, env app.Env) {
				var self *coro.Thread
				var wg app.WaitGroup
				wg.Add(1)
				child := env.Spawn("child", func(ce app.Env) {
					self = ce.Self()
					wg.Done(ce)
				})
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
				// The interrupt found no waiter, so it is latched: NEX
				// delivered it at the read's epoch boundary, the exact
				// engines at once. The wait consumes it in place.
				if d := elapsed(env, func() { env.WaitIRQ(mmioBase) }); d != 0 {
					t.Errorf("WaitIRQ on an already-raised interrupt took %v", d)
				}
			}},

		{"every register access finds the device advanced to its time", "",
			func(t *testing.T, env app.Env) {
				var wg app.WaitGroup
				wg.Add(1)
				env.Spawn("poller", func(ce app.Env) {
					for i := 1; i <= 4; i++ {
						ce.ComputeFor(vclock.Duration(i) * 700 * vclock.Nanosecond)
						ce.MMIORead(mmioBase)
					}
					wg.Done(ce)
				})
				for i := 1; i <= 4; i++ {
					env.MMIOWrite(mmioBase, 1)
					env.ComputeFor(vclock.Duration(i) * 300 * vclock.Nanosecond)
					env.MMIORead(mmioBase)
				}
				wg.Wait(env)

				accesses, advanced, upTo := 0, false, vclock.Time(0)
				for _, c := range dev.Calls {
					switch c.Op {
					case 'A':
						advanced, upTo = true, max(upTo, c.At)
					case 'R', 'W':
						accesses++
						if !advanced || upTo < c.At {
							t.Errorf("%c at %v found the device advanced to %v (advanced at all: %v)", c.Op, c.At, upTo, advanced)
						}
					}
				}
				if accesses != 12 {
					t.Errorf("the device saw %d register accesses, want 12", accesses)
				}
			}},
	}
	for _, h := range hosts {
		for _, tc := range cases {
			t.Run(h.name+"/"+tc.name, func(t *testing.T) {
				finished := false
				dev = &acceltest.Device{Busy: 1 * us, IRQ: true}
				p := runOn(h.build, dev, func(env app.Env) {
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
