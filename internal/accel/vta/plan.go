package vta

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Timing parameters of the modeled VTA (per device clock cycle): a
// 16x16 GEMM PE array (one K-step per cycle per 16x16 output tile), a
// 16-lane vector ALU, and 16-byte/cycle SRAM fill/drain engines.
const (
	gemmTile        = 16
	aluLanes        = 16
	sramBytesPerCyc = 16
	opSetupCycles   = 8
	aluSetupCycles  = 4
)

// DescSize is the task-descriptor size: prog (8) | count (4) | pad (4).
const DescSize = 16

// Desc describes one VTA task (a launched instruction stream).
type Desc struct {
	Prog  mem.Addr
	Count uint32
}

// EncodeDesc serializes the descriptor.
func EncodeDesc(d Desc) [DescSize]byte {
	var b [DescSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.Prog))
	binary.LittleEndian.PutUint32(b[8:], d.Count)
	return b
}

func decodeDesc(b []byte) Desc {
	return Desc{
		Prog:  mem.Addr(binary.LittleEndian.Uint64(b[0:])),
		Count: binary.LittleEndian.Uint32(b[8:]),
	}
}

// dmaOp is one memory operation an instruction performs.
type dmaOp struct {
	kind mem.AccessKind
	addr mem.Addr
	size int
	data []byte // store payload
}

// planOp is one instruction's work, precomputed by the functionality
// track.
type planOp struct {
	instr    Instr
	cycles   int64
	dmas     []dmaOp
	finish   bool        // OpFinish: completes the task
	minStart vclock.Time // earliest start (instruction fetch completion)
}

// instrCycles computes an instruction's occupancy in device cycles.
func instrCycles(i *Instr) int64 {
	switch i.Op {
	case OpLoad:
		bytes := int64(i.Rows) * int64(i.Cols)
		if i.Buf == BufAcc {
			bytes *= 4
		}
		return opSetupCycles + bytes/sramBytesPerCyc
	case OpGemm:
		mt := (int64(i.M) + gemmTile - 1) / gemmTile
		nt := (int64(i.N) + gemmTile - 1) / gemmTile
		return opSetupCycles + mt*nt*int64(i.K)
	case OpAlu:
		return aluSetupCycles + int64(i.Len)/aluLanes
	case OpStore:
		return opSetupCycles + int64(i.Rows)*int64(i.Cols)/sramBytesPerCyc
	default: // FINISH
		return 1
	}
}

// vtaPlan is a memoized master copy of the per-module op lists for one
// (program bytes, input data) pair — program bytes include the DRAM
// placement, so the DMA address plan is pinned by the key — or the error
// that pair fails to decode or execute with. Masters carry no fetch
// gate; callers append value copies and gate those (appendGated), never
// the master.
type vtaPlan struct {
	loads, computes, stores []planOp
	err                     error
}

// fullPlanMemo memoizes assembled plans. Distinct from payloadMemo below:
// payloadMemo shares functional interpretation across *placements* (its
// key skips DRAM fields), while this memo shares the whole decoded op
// list when placement also matches — the common case for repeated runs,
// checkpoint replays, and sweep points over one staged workload. Store
// payloads are payloadMemo's bytes; a plan weighs its op lists.
var fullPlanMemo = devkit.NewMemo[uint64](func(p *vtaPlan) int64 {
	cost := int64(0)
	for _, ops := range [][]planOp{p.loads, p.computes, p.stores} {
		cost += int64(len(ops)) * int64(unsafe.Sizeof(planOp{}))
		for i := range ops {
			cost += int64(len(ops[i].dmas)) * int64(unsafe.Sizeof(dmaOp{}))
		}
	}
	return cost
})

// loadRowBytes returns the size of one row a LOAD moves.
func loadRowBytes(i *Instr) int {
	if i.Buf == BufAcc {
		return 4 * int(i.Cols)
	}
	return int(i.Cols)
}

// planKey is the fullPlanMemo key of desc: the exact program bytes —
// which hold every LOAD's address, shape and stride — plus the content
// sums of the pages the LOADs' spans overlap, a superset of the bytes the
// plan depends on that costs no operand byte to compute. The spans of a
// tiled schedule overlap and abut (every K-chunk re-reads most of B), so
// they are merged first and each page is summed once.
func planKey(host accel.Host, desc Desc) (uint64, error) {
	prog := make([]byte, int(desc.Count)*InstrSize)
	host.ZeroCostRead(desc.Prog, prog)
	key := mem.Hash(0, prog)
	type pages struct{ lo, hi mem.Addr }
	var spans []pages
	for idx := 0; idx < int(desc.Count); idx++ {
		i, err := DecodeInstr(prog[idx*InstrSize : (idx+1)*InstrSize])
		if err != nil {
			return 0, err
		}
		rowBytes := loadRowBytes(&i)
		if i.Op != OpLoad || i.Rows == 0 || rowBytes == 0 {
			continue
		}
		stride := int(i.Stride)
		if stride == 0 {
			stride = rowBytes
		}
		lo, n := mem.Addr(i.DRAM), (int(i.Rows)-1)*stride+rowBytes
		spans = append(spans, pages{lo &^ (mem.PageSize - 1), (lo + mem.Addr(n) + mem.PageSize - 1) &^ (mem.PageSize - 1)})
	}
	slices.SortFunc(spans, func(a, b pages) int { return cmp.Compare(a.lo, b.lo) })
	for j := 0; j < len(spans); {
		run := spans[j]
		for j++; j < len(spans) && spans[j].lo <= run.hi; j++ {
			run.hi = max(run.hi, spans[j].hi)
		}
		key = mem.Mix(key, host.ZeroCostSum(run.lo, int(run.hi-run.lo)))
	}
	return key, nil
}

// cachedPlan returns the (shared, read-only) master plan for desc,
// building and caching it on first sight; a hit reads the program and no
// operand byte.
func cachedPlan(host accel.Host, desc Desc) (*vtaPlan, error) {
	key, err := planKey(host, desc)
	if err != nil {
		return nil, err
	}
	plan := fullPlanMemo.Get(key, func() *vtaPlan {
		read := func(addr mem.Addr, size int) []byte {
			buf := make([]byte, size)
			host.ZeroCostRead(addr, buf)
			return buf
		}
		loads, computes, stores, err := buildPlan(read, desc)
		return &vtaPlan{loads: loads, computes: computes, stores: stores, err: err}
	})
	return plan, plan.err
}

// appendGated copies master ops onto q, gating each copy on the
// instruction-fetch completion time.
func appendGated(q *devkit.Queue[planOp], ops []planOp, fetchDone vclock.Time) {
	for i, queued := 0, q.Push(ops...); i < len(queued); i++ {
		queued[i].minStart = max(queued[i].minStart, fetchDone)
	}
}

// payloadMemo memoizes the functionality track's store payloads per
// (program, input data) pair. The computed results are a pure function
// of those inputs, and the same task streams are executed by the DSim
// model, the RTL-style model, and repeated harness runs; memoizing
// removes redundant host compute without affecting any simulated timing
// (DESIGN.md §1). Cached payloads are shared read-only.
var payloadMemo = devkit.NewMemo[uint64](func(p *storePayloads) int64 {
	cost := int64(0)
	for _, out := range p.out {
		cost += int64(len(out))
	}
	return cost
})

// storePayloads is one interpretation's STORE payloads in program order,
// or the error the functional core rejected the program with.
type storePayloads struct {
	out [][]byte
	err error
}

// buildPlan decodes and functionally executes an instruction stream,
// returning per-module op lists. read is the functional memory access
// (the caller decides whether it is recorded as a DMA trace); it must
// return a fresh buffer the plan may retain. The functional core is
// only allocated when the (program, data) pair has not run before.
func buildPlan(read func(addr mem.Addr, size int) []byte,
	desc Desc) (loads, computes, stores []planOp, err error) {

	progBytes := read(desc.Prog, int(desc.Count)*InstrSize)

	// Pass 1: decode, gather LOAD data, and hash (program + inputs).
	type decoded struct {
		instr Instr
		data  []byte  // LOAD payload
		dmas  []dmaOp // LOAD/STORE address plan
	}
	// The store payloads are independent of where operands live in DRAM
	// (LoadBytes consumes the gathered data; compute reads SRAM offsets
	// only), so the memo key skips each instruction's DRAM field — layers
	// with identical schedules and operand data share one interpretation
	// even though their buffers sit at different arena offsets.
	key := uint64(0)
	ins := make([]decoded, desc.Count)
	sawFinish := false
	for idx := 0; idx < int(desc.Count); idx++ {
		ib := progBytes[idx*InstrSize : (idx+1)*InstrSize]
		key = mem.Hash(key, ib[:8])
		key = mem.Hash(key, ib[16:])
		i, derr := DecodeInstr(ib)
		if derr != nil {
			return nil, nil, nil, derr
		}
		d := decoded{instr: i}
		switch i.Op {
		case OpLoad:
			rowBytes := loadRowBytes(&i)
			var data []byte
			if i.Stride == 0 || int(i.Stride) == rowBytes {
				data = read(mem.Addr(i.DRAM), int(i.Rows)*rowBytes)
				d.dmas = append(d.dmas, dmaOp{kind: mem.Read,
					addr: mem.Addr(i.DRAM), size: len(data)})
			} else {
				data = make([]byte, int(i.Rows)*rowBytes)
				for r := 0; r < int(i.Rows); r++ {
					a := mem.Addr(i.DRAM) + mem.Addr(r*int(i.Stride))
					copy(data[r*rowBytes:], read(a, rowBytes))
					d.dmas = append(d.dmas, dmaOp{kind: mem.Read, addr: a, size: rowBytes})
				}
			}
			d.data = data
			key = mem.Hash(key, data)
		case OpFinish:
			sawFinish = true
		}
		ins[idx] = d
	}
	if !sawFinish {
		return nil, nil, nil, fmt.Errorf("vta: program lacks FINISH")
	}

	// Pass 2: produce store payloads — from the memo when this exact
	// (program, data) pair has run before, else by interpreting.
	payloads := payloadMemo.Get(key, func() *storePayloads {
		var out [][]byte
		core := NewCore()
		for idx := range ins {
			i := &ins[idx].instr
			var err error
			switch i.Op {
			case OpLoad:
				err = core.LoadBytes(i, ins[idx].data)
			case OpGemm:
				err = core.Gemm(i)
			case OpAlu:
				err = core.Alu(i)
			case OpStore:
				var payload []byte
				payload, err = core.StoreBytes(i)
				out = append(out, payload)
			}
			if err != nil {
				return &storePayloads{err: err}
			}
		}
		return &storePayloads{out: out}
	})
	if payloads.err != nil {
		return nil, nil, nil, payloads.err
	}

	// Assemble per-module op lists.
	storeIdx := 0
	for idx := range ins {
		i := ins[idx].instr
		op := planOp{instr: i, cycles: instrCycles(&i), dmas: ins[idx].dmas}
		switch i.Op {
		case OpLoad:
			loads = append(loads, op)
		case OpGemm, OpAlu:
			computes = append(computes, op)
		case OpStore:
			out := payloads.out[storeIdx]
			storeIdx++
			rowBytes := int(i.Cols)
			if i.Stride == 0 || int(i.Stride) == rowBytes {
				op.dmas = append(op.dmas, dmaOp{kind: mem.Write,
					addr: mem.Addr(i.DRAM), size: len(out), data: out})
			} else {
				for r := 0; r < int(i.Rows); r++ {
					a := mem.Addr(i.DRAM) + mem.Addr(r*int(i.Stride))
					op.dmas = append(op.dmas, dmaOp{kind: mem.Write, addr: a,
						size: rowBytes, data: out[r*rowBytes : (r+1)*rowBytes]})
				}
			}
			stores = append(stores, op)
		case OpFinish:
			op.finish = true
			computes = append(computes, op)
		}
	}
	return loads, computes, stores, nil
}
