// Package dram implements a DRAM controller latency model: per-bank
// row-buffer state (open-page policy), RAS/CAS timing, and channel
// bandwidth serialization. It sits at the bottom of a memsys stack.
package dram

import (
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Config describes the DRAM device and channel.
type Config struct {
	Name       string
	Banks      int             // number of banks (power of two)
	RowBytes   int             // bytes per row (power of two)
	CASLat     vclock.Duration // column access (row-buffer hit)
	RASLat     vclock.Duration // row activate (added on row miss)
	PreLat     vclock.Duration // precharge (added when closing an open row)
	BytesPerNs float64         // channel bandwidth
}

// DDR4 is a representative configuration (DDR4-2933-ish, matching the
// evaluation host's memory).
var DDR4 = Config{
	Name:       "DDR4",
	Banks:      16,
	RowBytes:   8192,
	CASLat:     14 * vclock.Nanosecond,
	RASLat:     14 * vclock.Nanosecond,
	PreLat:     14 * vclock.Nanosecond,
	BytesPerNs: 23.0, // ~23 GB/s per channel
}

// Controller is a single-channel DRAM controller.
type Controller struct {
	cfg      Config
	bankMask mem.Addr
	rowBits  uint

	openRow  []int64 // -1 = closed
	bankFree []vclock.Time
	chanFree vclock.Time

	// Channel time of a xferSize-byte transfer: nearly every request is
	// one cache line, so the float division runs once, not per request.
	xferSize int
	xfer     vclock.Duration

	// Stats.
	RowHits   int64
	RowMisses int64
	Requests  int64
}

// New builds a controller. It panics on malformed geometry.
func New(cfg Config) *Controller {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("dram: bank count must be a positive power of two")
	}
	if cfg.RowBytes <= 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic("dram: row size must be a positive power of two")
	}
	if cfg.BytesPerNs <= 0 {
		panic("dram: bandwidth must be positive")
	}
	c := &Controller{
		cfg:      cfg,
		bankMask: mem.Addr(cfg.Banks - 1),
		openRow:  make([]int64, cfg.Banks),
		bankFree: make([]vclock.Time, cfg.Banks),
	}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	for bits := cfg.RowBytes; bits > 1; bits >>= 1 {
		c.rowBits++
	}
	return c
}

// Access implements memsys.Port.
func (c *Controller) Access(at vclock.Time, kind mem.AccessKind, addr mem.Addr, size int) vclock.Time {
	if size <= 0 {
		size = 1
	}
	c.Requests++

	// Bank interleaving on row-aligned address bits.
	row := int64(addr >> c.rowBits)
	bank := int((addr >> c.rowBits) & c.bankMask)

	start := at
	if c.bankFree[bank] > start {
		start = c.bankFree[bank]
	}

	var access vclock.Duration
	switch {
	case c.openRow[bank] == row:
		c.RowHits++
		access = c.cfg.CASLat
	case c.openRow[bank] == -1:
		c.RowMisses++
		access = c.cfg.RASLat + c.cfg.CASLat
	default:
		c.RowMisses++
		access = c.cfg.PreLat + c.cfg.RASLat + c.cfg.CASLat
	}
	c.openRow[bank] = row

	// Data transfer serializes on the channel.
	if size != c.xferSize {
		c.xferSize = size
		c.xfer = vclock.Duration(float64(size) / c.cfg.BytesPerNs * float64(vclock.Nanosecond))
	}
	xferStart := start.Add(access)
	if c.chanFree > xferStart {
		xferStart = c.chanFree
	}
	done := xferStart.Add(c.xfer)
	c.chanFree = done
	c.bankFree[bank] = start.Add(access)
	_ = kind // reads and writes share timing in this model
	return done
}

// RowHitRate reports row-buffer hits / total requests.
func (c *Controller) RowHitRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(c.Requests)
}
