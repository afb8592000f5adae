package hostkit

import (
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// bareDevice implements accel.Device and nothing else.
type bareDevice struct{}

func (bareDevice) Name() string                                    { return "bare" }
func (bareDevice) RegRead(at vclock.Time, off mem.Addr) uint32     { return 0 }
func (bareDevice) RegWrite(at vclock.Time, off mem.Addr, v uint32) {}
func (bareDevice) Advance(t vclock.Time)                           {}
func (bareDevice) NextEvent() (vclock.Time, bool)                  { return vclock.Never, false }
func (bareDevice) Stats() accel.DeviceStats                        { return accel.DeviceStats{} }

// irqDevice answers MayRaiseIRQ with mayIRQ.
type irqDevice struct {
	bareDevice
	mayIRQ bool
}

func (d irqDevice) MayRaiseIRQ() bool { return d.mayIRQ }

// wrapped is an adapter around inner, the way a channel adapter wraps a
// device.
type wrapped struct {
	bareDevice
	inner accel.Device
}

func (w wrapped) Unwrap() accel.Device { return w.inner }

func TestMayRaiseIRQUnwrapsAndDefaults(t *testing.T) {
	quiet, loud := irqDevice{mayIRQ: false}, irqDevice{mayIRQ: true}
	if mayRaiseIRQ(quiet) {
		t.Fatal("quiet device reported IRQ-capable")
	}
	if !mayRaiseIRQ(loud) {
		t.Fatal("loud device reported quiet")
	}
	if !mayRaiseIRQ(bareDevice{}) {
		t.Fatal("unknown device must default to IRQ-capable (events interleaved exactly)")
	}
	if mayRaiseIRQ(wrapped{inner: quiet}) {
		t.Fatal("unwrap chain not followed")
	}
	if !mayRaiseIRQ(wrapped{inner: wrapped{inner: loud}}) {
		t.Fatal("two-deep unwrap chain not followed")
	}
}
