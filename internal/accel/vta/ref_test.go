package vta

import (
	"fmt"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
)

// refGemm and refAlu are the loops Core.Gemm and Core.Alu replaced, kept
// verbatim: the kernels in func.go must leave Acc and return errors
// exactly as these do (DESIGN.md §4.3, "functional kernels"). Below them,
// refBuildPlan is the plan assembly buildPlan replaced.

// refGemm executes acc[M][N] += in[M][K] * wgt[N][K].
func refGemm(c *Core, i *Instr) error {
	m, n, k := int(i.M), int(i.N), int(i.K)
	if int(i.InBase)+m*k > len(c.Input) ||
		int(i.WgtBase)+n*k > len(c.Weight) ||
		int(i.AccBase)+m*n > len(c.Acc) {
		return fmt.Errorf("vta: gemm operand out of range")
	}
	if i.ResetAcc {
		for j := 0; j < m*n; j++ {
			c.Acc[int(i.AccBase)+j] = 0
		}
	}
	for mi := 0; mi < m; mi++ {
		inRow := c.Input[int(i.InBase)+mi*k : int(i.InBase)+mi*k+k]
		accRow := c.Acc[int(i.AccBase)+mi*n:]
		for ni := 0; ni < n; ni++ {
			wgtRow := c.Weight[int(i.WgtBase)+ni*k : int(i.WgtBase)+ni*k+k : int(i.WgtBase)+ni*k+k]
			var s0, s1, s2, s3 int32
			ki := 0
			for ; ki+8 <= k; ki += 8 {
				w := wgtRow[ki : ki+8 : ki+8]
				r := inRow[ki : ki+8 : ki+8]
				s0 += int32(r[0])*int32(w[0]) + int32(r[4])*int32(w[4])
				s1 += int32(r[1])*int32(w[1]) + int32(r[5])*int32(w[5])
				s2 += int32(r[2])*int32(w[2]) + int32(r[6])*int32(w[6])
				s3 += int32(r[3])*int32(w[3]) + int32(r[7])*int32(w[7])
			}
			sum := s0 + s1 + s2 + s3
			for ; ki < k; ki++ {
				sum += int32(inRow[ki]) * int32(wgtRow[ki])
			}
			accRow[ni] += sum
		}
	}
	return nil
}

// refAlu executes a vector operation over the accumulator buffer.
func refAlu(c *Core, i *Instr) error {
	n := int(i.Len)
	dst := int(i.AccBase)
	if dst+n > len(c.Acc) {
		return fmt.Errorf("vta: alu dst out of range")
	}
	src := int(i.SrcAcc)
	if !i.UseImm && src+n > len(c.Acc) {
		return fmt.Errorf("vta: alu src out of range")
	}
	for j := 0; j < n; j++ {
		a := c.Acc[dst+j]
		b := i.Imm
		if !i.UseImm {
			b = c.Acc[src+j]
		}
		switch i.Alu {
		case AluAdd:
			a += b
		case AluMax:
			if b > a {
				a = b
			}
		case AluMin:
			if b < a {
				a = b
			}
		case AluShr:
			sh := uint(b & 31)
			a >>= sh
		default:
			return fmt.Errorf("vta: bad alu op %d", i.Alu)
		}
		c.Acc[dst+j] = a
	}
	return nil
}

// refPayloadMemo is refBuildPlan's payload memo in place of payloadMemo,
// the one change to it besides its name: the reference interprets every
// program itself, on a NewCore, instead of finding the payloads
// buildPlan stored.
var refPayloadMemo = devkit.NewMemo[uint64](func(p *storePayloads) int64 { return 0 })

// refBuildPlan decodes and functionally executes an instruction stream,
// returning per-module op lists. read is the functional memory access
// (the caller decides whether it is recorded as a DMA trace); it must
// return a fresh buffer the plan may retain. The functional core is
// only allocated when the (program, data) pair has not run before.
func refBuildPlan(read func(addr mem.Addr, size int) []byte,
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
	payloads := refPayloadMemo.Get(key, func() *storePayloads {
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
