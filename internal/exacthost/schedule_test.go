package exacthost

import (
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/app"
	"nexsim/internal/hostkit"
	"nexsim/internal/vclock"
)

// unitDevice is acceltest.Device as a cycle-level stand-in looks to a
// host: while its task is in flight it reports an internal event every
// unit. It counts the host's NextEvent and Advance calls and records the
// Advance targets.
type unitDevice struct {
	*acceltest.Device
	unit     vclock.Duration
	now      vclock.Time
	nexts    int
	advances []vclock.Time
}

func (d *unitDevice) NextEvent() (vclock.Time, bool) {
	d.nexts++
	at, ok := d.Device.NextEvent()
	if u := d.now.Add(d.unit); ok && u < at {
		return u, true
	}
	return at, ok
}

func (d *unitDevice) Advance(t vclock.Time) {
	d.advances = append(d.advances, t)
	if t > d.now {
		d.now = t
	}
	d.Device.Advance(t)
}

type scheduleRun struct {
	sim      vclock.Duration
	dev      *unitDevice
	polls    int
	irqs     int64
	exceeded bool
}

// runSchedule launches one task of busy device time, split into
// busy/unit internal events, and waits for it by interrupt or by polling
// every millisecond.
func runSchedule(t *testing.T, cfg Config, irq bool, busy, unit vclock.Duration) scheduleRun {
	t.Helper()
	e := New(cfg)
	inner := &acceltest.Device{Busy: busy}
	if irq {
		inner.IRQ = 5
	}
	dev := &unitDevice{Device: inner, unit: unit}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096, MMIOCost: vclock.Microsecond}
	inner.Host = e.HostFor(b)
	e.Attach(b)
	r := scheduleRun{dev: dev}
	r.sim = e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		if irq {
			env.WaitIRQ(5)
		}
		for {
			r.polls++
			if env.MMIORead(0x8000_0000) != 0 {
				return
			}
			env.Sleep(ms)
		}
	}}).SimTime
	r.irqs = e.IRQs
	if r.exceeded = e.BudgetExceeded(); r.exceeded {
		e.Reap()
	}
	return r
}

// TestDeviceSchedule pins the exact host's one device schedule: a
// polling device is caught up only before thread events and when the
// host observes it, never once per internal device event, while an
// interrupt-capable device still has every event interleaved — and the
// schedule is the same at every intra.
func TestDeviceSchedule(t *testing.T) {
	const busy, unit = 10 * ms, vclock.Microsecond
	events := int(busy / unit)
	for _, irq := range []bool{false, true} {
		var base scheduleRun
		for _, intra := range []int{1, 2} {
			r := runSchedule(t, Config{Cores: 2, Intra: intra}, irq, busy, unit)
			for i := 1; i < len(r.dev.advances); i++ {
				if r.dev.advances[i] < r.dev.advances[i-1] {
					t.Fatalf("irq=%v intra=%d: Advance targets decrease at call %d: %v after %v",
						irq, intra, i, r.dev.advances[i], r.dev.advances[i-1])
				}
			}
			switch {
			case irq && len(r.dev.advances) < events:
				t.Errorf("intra=%d: IRQ device advanced %d times, want every one of its %d events interleaved",
					intra, len(r.dev.advances), events)
			case !irq && intra == 1:
				// Each poll is one sleep event, one MMIO read and the end of
				// its cost: a handful of catch-ups, not one per device event.
				if bound := 4 * (r.polls + 2); r.dev.nexts+len(r.dev.advances) > bound {
					t.Errorf("polling device saw %d NextEvent and %d Advance calls over %d polls, want <= %d in all",
						r.dev.nexts, len(r.dev.advances), r.polls, bound)
				}
			}
			if intra == 1 {
				base = r
				continue
			}
			if r.sim != base.sim || r.polls != base.polls || r.irqs != base.irqs ||
				r.dev.Stats() != base.dev.Stats() || r.dev.Reads != base.dev.Reads {
				t.Errorf("irq=%v: intra 2 ran %v, %d polls, %d IRQs, %+v; intra 1 ran %v, %d polls, %d IRQs, %+v",
					irq, r.sim, r.polls, r.irqs, r.dev.Stats(), base.sim, base.polls, base.irqs, base.dev.Stats())
			}
		}
	}
}

// TestStepBudgetSameAtEveryIntra: the loop takes the same steps with
// lanes and without, so a step budget aborts a run at the same point.
func TestStepBudgetSameAtEveryIntra(t *testing.T) {
	var at [2]scheduleRun
	for i, intra := range []int{1, 2} {
		at[i] = runSchedule(t, Config{Cores: 2, Intra: intra, MaxSteps: 12}, false, 10*ms, vclock.Microsecond)
		if !at[i].exceeded {
			t.Fatalf("intra=%d: a 12-step budget did not abort a run of %d polls", intra, at[i].polls)
		}
	}
	if at[0].sim != at[1].sim || at[0].polls != at[1].polls || at[0].dev.Reads != at[1].dev.Reads {
		t.Errorf("aborted at %v after %d polls at intra 1, at %v after %d polls at intra 2",
			at[0].sim, at[0].polls, at[1].sim, at[1].polls)
	}
}
