// Package simbricks implements the SimBricks-style co-simulation channel
// (paper §5, §A.2): simulators exchange timestamped messages over a
// shared-memory ring. Adapters wrap an accelerator simulator (and its
// view of the host) so that every register access, DMA, zero-cost DMA
// and interrupt crosses the channel as an encoded message.
//
// Marshaling through the ring is real work — that is precisely the
// overhead the paper's tight integration avoids (§A.2 reports the tight
// NEX+DSim coupling is 1.6x faster on average than going through the
// SimBricks channel). Virtual time is unaffected: the channel's sync
// latency corresponds to the device link latency that the interconnect
// model already accounts for.
//
// The FastForward protocol extension (§A.2) is represented by the
// adapter passing NextEvent through: an idle device reports no event and
// the host force-updates its clock on the next interaction instead of
// exchanging per-epoch sync messages.
package simbricks

import (
	"encoding/binary"

	"nexsim/internal/accel"
	"nexsim/internal/faults"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// message types on the channel.
const (
	msgRegRead = iota + 1
	msgRegReadResp
	msgRegWrite
	msgAdvance
	msgNextEvent
	msgNextEventResp
	msgDMA
	msgDMAResp
	msgZeroCostRead
	msgZeroCostReadResp
	msgZeroCostWrite
	msgZeroCostSum
	msgZeroCostSumResp
	msgIRQ
)

const headerSize = 1 + 8 + 8 + 8 + 4 // type | timestamp | addr | aux | len

// Channel is a shared-memory message ring between two simulators,
// backed by a bounded SPSC Ring safe for cross-goroutine use: in
// parallel intra-run mode (core.Config.IntraParallel) the device side
// marshals on its stepper goroutine and the host side decodes after a
// join, with the ring's atomic indices carrying the happens-before
// edges. Headers and payloads are marshaled through a grow-once scratch
// buffer, so the steady-state per-message cost is the copy itself —
// zero heap allocations (TestChannelSteadyStateAllocFree pins this).
type Channel struct {
	ring    *Ring
	scratch []byte

	// faults crosses the chan.send / chan.recv injection sites on every
	// message (nil = no-op): a fail fault drops the message by panicking
	// with the *faults.Injected (recovered into a transient error at the
	// run boundary), a delay shifts the message timestamp forward.
	faults *faults.Injector

	// Stats.
	Msgs  int64
	Bytes int64
}

// SetFaults installs the per-run fault injector on the channel's
// send/recv sites. Call before the run starts.
func (c *Channel) SetFaults(in *faults.Injector) { c.faults = in }

// NewChannel allocates a channel with the given ring capacity (default
// 256KB).
func NewChannel(size int) *Channel {
	return &Channel{ring: NewRing(size)}
}

// send encodes one message through the scratch buffer and publishes it
// on the ring. Encoding and the ring copy are the per-message cost that
// the tight integration avoids.
func (c *Channel) send(typ byte, ts vclock.Time, addr uint64, aux uint64, payload []byte) {
	if inj := c.faults.Hit(faults.SiteChanSend); inj != nil {
		if inj.Op == faults.OpFail {
			panic(inj)
		}
		ts = ts.Add(vclock.Duration(inj.Delay))
	}
	need := headerSize + len(payload)
	if need > len(c.scratch) {
		// Grow once to fit the largest message seen; never a
		// per-message allocation.
		c.scratch = make([]byte, 2*need)
	}
	if need+8 > c.ring.Cap() && c.ring.Len() == 0 {
		// Grow the ring once for the largest message seen. Only legal
		// while empty; roundTrip usage drains every message
		// synchronously, so an oversize message always finds the ring
		// empty.
		c.ring = NewRing(2 * need)
	}
	b := c.scratch
	b[0] = typ
	binary.LittleEndian.PutUint64(b[1:], uint64(ts))
	binary.LittleEndian.PutUint64(b[9:], addr)
	binary.LittleEndian.PutUint64(b[17:], aux)
	binary.LittleEndian.PutUint32(b[25:], uint32(len(payload)))
	copy(b[headerSize:], payload)
	c.ring.Push(b[:need])
	c.Msgs++
	c.Bytes += int64(need)
}

// recv consumes the next message from the ring. The payload view stays
// valid until the producer has pushed a full ring capacity of further
// bytes; with the synchronous roundTrip discipline that is always long
// enough for the caller to copy it out.
func (c *Channel) recv() (typ byte, ts vclock.Time, addr uint64, aux uint64, payload []byte) {
	b := c.ring.popRaw()
	typ = b[0]
	ts = vclock.Time(binary.LittleEndian.Uint64(b[1:]))
	if inj := c.faults.Hit(faults.SiteChanRecv); inj != nil {
		if inj.Op == faults.OpFail {
			panic(inj)
		}
		ts = ts.Add(vclock.Duration(inj.Delay))
	}
	addr = binary.LittleEndian.Uint64(b[9:])
	aux = binary.LittleEndian.Uint64(b[17:])
	n := binary.LittleEndian.Uint32(b[25:])
	payload = b[headerSize : headerSize+int(n)]
	return
}

// roundTrip sends a message and immediately receives it (the two
// simulators run in one process here, so the "other side" dequeues
// synchronously — SimBricks' polling consumer).
func (c *Channel) roundTrip(typ byte, ts vclock.Time, addr, aux uint64, payload []byte) (vclock.Time, uint64, uint64, []byte) {
	c.send(typ, ts, addr, aux, payload)
	_, rts, raddr, raux, rp := c.recv()
	return rts, raddr, raux, rp
}

// DeviceAdapter presents a Device across the channel.
type DeviceAdapter struct {
	dev accel.Device
	ch  *Channel
}

// WrapDevice returns the device as seen by the host through the channel.
func WrapDevice(d accel.Device, ch *Channel) *DeviceAdapter {
	return &DeviceAdapter{dev: d, ch: ch}
}

// Name implements accel.Device.
func (a *DeviceAdapter) Name() string { return a.dev.Name() + "+chan" }

// Unwrap exposes the inner device (for model-specific control paths like
// schema registration).
func (a *DeviceAdapter) Unwrap() accel.Device { return a.dev }

// RegRead implements accel.Device: request and response each cross the
// channel.
func (a *DeviceAdapter) RegRead(at vclock.Time, off mem.Addr) uint32 {
	ts, addr, _, _ := a.ch.roundTrip(msgRegRead, at, uint64(off), 0, nil)
	v := a.dev.RegRead(ts, mem.Addr(addr))
	rts, _, aux, _ := a.ch.roundTrip(msgRegReadResp, ts, 0, uint64(v), nil)
	_ = rts
	return uint32(aux)
}

// RegWrite implements accel.Device.
func (a *DeviceAdapter) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	ts, addr, aux, _ := a.ch.roundTrip(msgRegWrite, at, uint64(off), uint64(v), nil)
	a.dev.RegWrite(ts, mem.Addr(addr), uint32(aux))
}

// Advance implements accel.Device (the AdvanceUntil primitive carried as
// a sync message).
func (a *DeviceAdapter) Advance(t vclock.Time) {
	ts, _, _, _ := a.ch.roundTrip(msgAdvance, t, 0, 0, nil)
	a.dev.Advance(ts)
}

// NextEvent implements accel.Device; with the FastForward extension an
// idle device's "no event" response lets the host force-update the
// device clock instead of synchronizing every epoch.
func (a *DeviceAdapter) NextEvent() (vclock.Time, bool) {
	a.ch.roundTrip(msgNextEvent, 0, 0, 0, nil)
	at, ok := a.dev.NextEvent()
	aux := uint64(0)
	if ok {
		aux = 1
	}
	rts, _, raux, _ := a.ch.roundTrip(msgNextEventResp, at, 0, aux, nil)
	return rts, raux != 0
}

// Stats implements accel.Device.
func (a *DeviceAdapter) Stats() accel.DeviceStats { return a.dev.Stats() }

// SetHost wires through to the inner device, wrapping the host side of
// the channel too (DMAs, zero-cost DMAs and IRQs are messages as well).
func (a *DeviceAdapter) SetHost(h accel.Host) {
	type hostSetter interface{ SetHost(accel.Host) }
	a.dev.(hostSetter).SetHost(&hostAdapter{h: h, ch: a.ch})
}

// hostAdapter is the device's view of the host across the channel.
type hostAdapter struct {
	h  accel.Host
	ch *Channel
}

// DMA implements accel.Host: request and completion cross the channel.
func (a *hostAdapter) DMA(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	ts, raddr, aux, _ := a.ch.roundTrip(msgDMA, at, uint64(addr), uint64(kind)<<32|uint64(uint32(size)), nil)
	comp := a.h.DMA(ts, mem.AccessKind(aux>>32), mem.Addr(raddr), int(uint32(aux)))
	rts, _, _, _ := a.ch.roundTrip(msgDMAResp, comp, 0, 0, nil)
	return rts
}

// ZeroCostRead implements accel.Host: the data crosses the channel (the
// separate unsynchronized connection of §A.2).
func (a *hostAdapter) ZeroCostRead(addr mem.Addr, p []byte) {
	a.h.ZeroCostRead(addr, p)
	// The payload travels back through the ring.
	chunk := p
	for len(chunk) > 0 {
		n := len(chunk)
		if n > 32<<10 {
			n = 32 << 10
		}
		_, _, _, rp := a.ch.roundTrip(msgZeroCostReadResp, 0, uint64(addr), 0, chunk[:n])
		copy(chunk[:n], rp)
		chunk = chunk[n:]
		addr += mem.Addr(n)
	}
}

// ZeroCostWrite implements accel.Host.
func (a *hostAdapter) ZeroCostWrite(addr mem.Addr, p []byte) {
	chunk := p
	for len(chunk) > 0 {
		n := len(chunk)
		if n > 32<<10 {
			n = 32 << 10
		}
		_, raddr, _, rp := a.ch.roundTrip(msgZeroCostWrite, 0, uint64(addr), 0, chunk[:n])
		a.h.ZeroCostWrite(mem.Addr(raddr), rp)
		chunk = chunk[n:]
		addr += mem.Addr(n)
	}
}

// ZeroCostSum implements accel.Host: the span goes out and the sum comes
// back, one message each, however many pages the span covers.
func (a *hostAdapter) ZeroCostSum(addr mem.Addr, n int) uint64 {
	_, raddr, aux, _ := a.ch.roundTrip(msgZeroCostSum, 0, uint64(addr), uint64(n), nil)
	sum := a.h.ZeroCostSum(mem.Addr(raddr), int(aux))
	_, _, rsum, _ := a.ch.roundTrip(msgZeroCostSumResp, 0, 0, sum, nil)
	return rsum
}

// RaiseIRQ implements accel.Host (MSI-X issue message).
func (a *hostAdapter) RaiseIRQ(at vclock.Time, vector int) {
	ts, _, aux, _ := a.ch.roundTrip(msgIRQ, at, 0, uint64(vector), nil)
	a.h.RaiseIRQ(ts, int(aux))
}
