// Package isa models the software stack's computation as synthetic
// instruction streams.
//
// The functional behaviour of the simulated software always runs as
// ordinary Go code; what the host engines need from "the program" is its
// *timing shape*: how many instructions a compute segment executes, their
// mix, and the memory footprint. A Work value is that descriptor. The
// reference and NEX engines convert it straight to native duration
// (instructions / native IPC); the gem5-style engine expands it
// instruction by instruction through a pipeline + cache model, which is
// both why it is slow and why its timing differs from native — exactly
// the cost/accuracy contrast the paper measures (§6.5).
package isa

import (
	"nexsim/internal/vclock"
)

// Mix gives the fraction of each non-ALU class in a stream; the
// remainder is plain ALU.
type Mix struct {
	Load   float64
	Store  float64
	Branch float64
	MulDiv float64
}

// DefaultMix is a typical integer-code mix.
var DefaultMix = Mix{Load: 0.25, Store: 0.10, Branch: 0.15, MulDiv: 0.02}

// MemHeavyMix models pointer-chasing / copy-heavy code (serializers).
var MemHeavyMix = Mix{Load: 0.35, Store: 0.20, Branch: 0.12, MulDiv: 0.01}

// ComputeMix models dense numeric kernels (filters, GEMM fallback).
var ComputeMix = Mix{Load: 0.20, Store: 0.08, Branch: 0.06, MulDiv: 0.08}

// Work describes one compute segment of the software stack.
type Work struct {
	Instr      int64   // dynamic instruction count
	Mix        Mix     // instruction class fractions
	WorkingSet int64   // bytes of memory the segment touches
	IPCNative  float64 // IPC this code achieves on the (real) native host
	Seed       uint64  // PRNG seed for deterministic stream expansion

	// NativeDur, when non-zero, is the segment's measured native
	// duration; it takes precedence over the Instr/IPCNative derivation
	// (as if the segment had been timed on the real host).
	NativeDur vclock.Duration
}

// NativeDuration is the segment's execution time on the native host at
// core frequency clk: NativeDur if set, else Instr / IPCNative cycles.
func (w Work) NativeDuration(clk vclock.Hz) vclock.Duration {
	if w.NativeDur > 0 {
		return w.NativeDur
	}
	if w.Instr <= 0 {
		return 0
	}
	ipc := w.IPCNative
	if ipc <= 0 {
		ipc = 1
	}
	cycles := float64(w.Instr) / ipc
	return vclock.Duration(cycles * float64(clk.Period()))
}

// Segment is a convenience constructor: a segment that takes d of native
// time at clk with the given mix, working set and native IPC.
func Segment(d vclock.Duration, clk vclock.Hz, mix Mix, ws int64, ipc float64, seed uint64) Work {
	if ipc <= 0 {
		ipc = 1
	}
	cycles := float64(d) / float64(clk.Period())
	return Work{
		Instr:      int64(cycles * ipc),
		Mix:        mix,
		WorkingSet: ws,
		IPCNative:  ipc,
		Seed:       seed,
		NativeDur:  d,
	}
}
