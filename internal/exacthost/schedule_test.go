package exacthost

import (
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/app"
	"nexsim/internal/hostkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// unitDevice is acceltest.Device as a cycle-level stand-in looks to a
// host: while its task is in flight it reports an internal event every
// unit. It counts the host's NextEvent and Advance calls, records the
// Advance targets, and at each register read records the target of the
// last Advance the read found, or noAdvance before the first.
type unitDevice struct {
	*acceltest.Device
	unit     vclock.Duration
	now      vclock.Time
	nexts    int
	advances []vclock.Time
	readSaw  []vclock.Time
}

// noAdvance is what lastAdvance reports before the first Advance call.
const noAdvance vclock.Time = -1

func (d *unitDevice) lastAdvance() vclock.Time {
	if len(d.advances) == 0 {
		return noAdvance
	}
	return d.advances[len(d.advances)-1]
}

func (d *unitDevice) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.readSaw = append(d.readSaw, d.lastAdvance())
	return d.Device.RegRead(at, off)
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

// maxPolls bounds runSchedule's polling loop, so that a host that never
// catches the device up fails the test instead of polling forever.
const maxPolls = 1000

// runSchedule launches one task of busy device time, split into
// busy/unit internal events, on a two-core host and waits for it by
// interrupt or by polling every millisecond, at most maxPolls times. It
// returns the device and the number of polls.
func runSchedule(irq bool, busy, unit vclock.Duration) (*unitDevice, int) {
	e := New(Config{Cores: 2})
	inner := &acceltest.Device{Busy: busy, IRQ: irq}
	dev := &unitDevice{Device: inner, unit: unit}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096, MMIOCost: vclock.Microsecond}
	inner.Host = e.HostFor(b)
	e.Attach(b)
	polls := 0
	e.Run(app.Program{Main: func(env app.Env) {
		env.MMIOWrite(0x8000_0000, 1)
		if irq {
			env.WaitIRQ(0x8000_0000)
		}
		for polls < maxPolls {
			polls++
			if env.MMIORead(0x8000_0000) != 0 {
				return
			}
			env.Sleep(ms)
		}
	}})
	return dev, polls
}

// TestDeviceSchedule pins the exact host's one device schedule: a
// polling device is caught up only before thread events and when the
// host observes it, never once per internal device event, while an
// interrupt-capable device still has every event interleaved.
func TestDeviceSchedule(t *testing.T) {
	const busy, unit = 10 * ms, vclock.Microsecond
	events := int(busy / unit)
	for _, irq := range []bool{false, true} {
		dev, polls := runSchedule(irq, busy, unit)
		if polls == maxPolls {
			t.Errorf("irq=%v: the task was not done after %d polls", irq, polls)
		}
		for i := 1; i < len(dev.advances); i++ {
			if dev.advances[i] < dev.advances[i-1] {
				t.Fatalf("irq=%v: Advance targets decrease at call %d: %v after %v",
					irq, i, dev.advances[i], dev.advances[i-1])
			}
		}
		if irq {
			if len(dev.advances) < events {
				t.Errorf("IRQ device advanced %d times, want every one of its %d events interleaved",
					len(dev.advances), events)
			}
			continue
		}
		// Each poll is one sleep event, one MMIO read and the end of its
		// cost: a handful of catch-ups, not one per device event.
		if bound := 4 * (polls + 2); dev.nexts+len(dev.advances) > bound {
			t.Errorf("polling device saw %d NextEvent and %d Advance calls over %d polls, want <= %d in all",
				dev.nexts, len(dev.advances), polls, bound)
		}
	}

	// The loop catches the device up before every thread event, so a
	// register read and a task-buffer access partway into a thread's run
	// each find the device advanced to exactly their time. The thread
	// issues the task access in the same host step that resumed it, so
	// the last Advance before the call is the one the access finds.
	e := New(Config{Cores: 1})
	dev := &unitDevice{Device: &acceltest.Device{}, unit: unit}
	b := &hostkit.Binding{Device: dev, MMIOBase: 0x8000_0000, MMIOSize: 4096}
	dev.Host = e.HostFor(b)
	e.Attach(b)
	region := e.Mem().Alloc("taskbuf", 4096)
	var readAt, taskAt, taskSaw vclock.Time
	e.Run(app.Program{Main: func(env app.Env) {
		env.ComputeFor(300 * vclock.Nanosecond)
		readAt = env.Now()
		env.MMIORead(0x8000_0000)
		taskAt = env.Now()
		taskSaw = dev.lastAdvance()
		var buf [8]byte
		env.TaskWrite(region.Base, buf[:])
	}})
	if len(dev.readSaw) != 1 || dev.readSaw[0] != readAt || readAt == 0 {
		t.Errorf("before the register read at %v the device was last advanced to %v (%v: never), want %v",
			readAt, dev.readSaw, noAdvance, readAt)
	}
	if taskSaw != taskAt || taskAt <= readAt {
		t.Errorf("at the task-buffer access at %v the device was last advanced to %v (%v: never), want %v",
			taskAt, taskSaw, noAdvance, taskAt)
	}
}
