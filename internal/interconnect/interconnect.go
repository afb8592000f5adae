// Package interconnect models the fabric between accelerators and the
// host memory system: a PCIe-style link (one-way latency, TLP
// segmentation, bounded outstanding reads/writes) or an on-chip port
// (nanosecond-scale latency), stacked on a cache or DRAM through the
// memsys.Port interface.
//
// The evaluation setup (paper §6.1) attaches JPEG and VTA over PCIe with
// a 400 ns one-way delay and Protoacc on-chip with 4 ns, all DMAs served
// by the LLC, and "a maximum of 16 concurrent read and write requests
// each" — these are the defaults here.
package interconnect

import (
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

// Config describes one host-to-accelerator fabric.
type Config struct {
	Name            string
	LinkLatency     vclock.Duration // one-way propagation delay
	MaxPayload      int             // TLP payload bytes (0 = no segmentation)
	MaxOutstandingR int             // concurrent reads (0 = unlimited)
	MaxOutstandingW int             // concurrent writes (0 = unlimited)
	BytesPerNs      float64         // link bandwidth (0 = unlimited)
}

// PCIe400 is the paper's default PCIe attachment: 400ns one-way delay,
// 512B TLPs, 16 outstanding reads and writes, ~PCIe3 x8 bandwidth.
var PCIe400 = Config{
	Name:            "pcie-400ns",
	LinkLatency:     400 * vclock.Nanosecond,
	MaxPayload:      512,
	MaxOutstandingR: 16,
	MaxOutstandingW: 16,
	BytesPerNs:      8.0,
}

// OnChip4 is the paper's on-chip attachment for Protoacc: 4ns latency.
var OnChip4 = Config{
	Name:            "onchip-4ns",
	LinkLatency:     4 * vclock.Nanosecond,
	MaxPayload:      0,
	MaxOutstandingR: 16,
	MaxOutstandingW: 16,
	BytesPerNs:      64.0,
}

// WithLatency returns a copy of c with a different link latency — the
// single-knob sweep used in the paper's interactive design exploration
// (§6.4: 400ns -> 100ns -> 4ns).
func (c Config) WithLatency(d vclock.Duration) Config {
	c.LinkLatency = d
	return c
}

// Fabric connects an accelerator to the host memory system.
type Fabric struct {
	cfg    Config
	target memsys.Port

	rWin *memsys.Window
	wWin *memsys.Window
	busy vclock.Time // link serialization point
	tlb  *iotlb      // optional I/O address translation (EnableIOTLB)

	// Wire time of a wireSize-byte payload: a DMA is a run of equal
	// TLPs, so the float division runs once per size, not per TLP.
	wireSize int
	wire     vclock.Duration

	// Stats.
	Reads, Writes int64
	Bytes         int64
	StallTime     vclock.Duration // time requests spent waiting for a slot
}

// New builds a fabric over the given memory target.
func New(cfg Config, target memsys.Port) *Fabric {
	if target == nil {
		panic("interconnect: nil target port")
	}
	f := &Fabric{cfg: cfg, target: target}
	if cfg.MaxOutstandingR > 0 {
		f.rWin = memsys.NewWindow(cfg.MaxOutstandingR)
	}
	if cfg.MaxOutstandingW > 0 {
		f.wWin = memsys.NewWindow(cfg.MaxOutstandingW)
	}
	return f
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Access implements memsys.Port: a DMA issued by the accelerator at time
// at, returning when the response (read) or acknowledgement (write)
// arrives back at the accelerator.
func (f *Fabric) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if size <= 0 {
		size = 1
	}
	if kind == mem.Read {
		f.Reads++
	} else {
		f.Writes++
	}
	f.Bytes += int64(size)

	if f.tlb != nil {
		at = f.tlb.translate(f, at, addr, size)
	}

	done := at
	// Segment into TLPs; each TLP independently claims an outstanding
	// slot and traverses the link.
	remaining := size
	segAddr := addr
	for remaining > 0 {
		seg := remaining
		if f.cfg.MaxPayload > 0 && seg > f.cfg.MaxPayload {
			seg = f.cfg.MaxPayload
		}
		d := f.accessSeg(at, kind, segAddr, seg)
		if d > done {
			done = d
		}
		// Back-to-back TLPs of one DMA stream out pipelined behind the
		// link's serialization (handled in accessSeg via f.busy).
		segAddr += mem.Addr(seg)
		remaining -= seg
	}
	return done
}

func (f *Fabric) accessSeg(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	start := at
	win := f.rWin
	if kind == mem.Write {
		win = f.wWin
	}
	if win != nil {
		admitted := win.Admit(start)
		f.StallTime += admitted.Sub(start)
		start = admitted
	}
	// Wire time for the payload, serialized on the link.
	if size != f.wireSize && f.cfg.BytesPerNs > 0 {
		f.wireSize = size
		f.wire = vclock.Duration(float64(size) / f.cfg.BytesPerNs * float64(vclock.Nanosecond))
	}
	if f.busy > start {
		start = f.busy
	}
	f.busy = start.Add(f.wire)

	// Request traverses the link, is served by the target, response
	// traverses back.
	arrive := start.Add(f.wire + f.cfg.LinkLatency)
	served := f.target.Access(arrive, kind, addr, size)
	done := served.Add(f.cfg.LinkLatency)
	if win != nil {
		win.Reserve(done)
	}
	return done
}
