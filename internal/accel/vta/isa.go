// Package vta implements the deep-learning accelerator stack of the
// paper's evaluation (§6.1, modeled on the Apache Versatile Tensor
// Accelerator [6]): a tensor ISA with explicit dependency queues between
// the load, compute and store modules, a functional interpreter, an
// event-driven DSim performance model (an lpnlang net: one stage per
// module joining on dependency-place tokens), an RTL-style cycle model, and
// a TVM-like driver/compiler that lowers GEMM and convolution layers to
// instruction streams.
package vta

import (
	"encoding/binary"
	"fmt"

	"nexsim/internal/mem"
)

// Opcode is a VTA instruction opcode.
type Opcode uint8

const (
	OpLoad Opcode = iota
	OpGemm
	OpAlu
	OpStore
	OpFinish
)

func (o Opcode) String() string {
	switch o {
	case OpLoad:
		return "LOAD"
	case OpGemm:
		return "GEMM"
	case OpAlu:
		return "ALU"
	case OpStore:
		return "STORE"
	default:
		return "FINISH"
	}
}

// Buffer identifies an on-chip SRAM.
type Buffer uint8

const (
	BufInput  Buffer = iota // int8 input activations
	BufWeight               // int8 weights
	BufAcc                  // int32 accumulators (also bias loads)
)

// AluOp is a vector ALU operation on the accumulator buffer.
type AluOp uint8

const (
	AluAdd AluOp = iota // acc[dst] += acc[src] or imm
	AluMax              // acc[dst] = max(acc[dst], acc[src] or imm)
	AluMin
	AluShr // arithmetic shift right by imm
)

// SRAM capacities (elements).
const (
	InputBufSize  = 64 << 10  // int8
	WeightBufSize = 256 << 10 // int8
	AccBufSize    = 32 << 10  // int32
)

// Instr is one decoded VTA instruction. Dependency flags follow VTA's
// 4-queue protocol: e.g. a GEMM with PopPrev waits for a token from the
// load module; a STORE with PushPrev hands one back to compute.
type Instr struct {
	Op Opcode

	// Dependency queue flags.
	PopPrev, PopNext, PushPrev, PushNext bool

	// LOAD/STORE fields.
	Buf      Buffer
	SRAMBase uint32 // element offset in the target buffer
	DRAM     uint64 // byte address in host memory
	Rows     uint16 // 2-D tile: rows
	Cols     uint16 // elements per row
	Stride   uint32 // DRAM row stride in bytes

	// GEMM fields: acc[M][N] += in[M][K] * wgt[N][K].
	M, N, K  uint16
	InBase   uint32 // input buffer element offset
	WgtBase  uint32 // weight buffer element offset
	AccBase  uint32 // accumulator element offset
	ResetAcc bool   // zero the destination first
	// ALU fields.
	Alu    AluOp
	UseImm bool
	Imm    int32
	SrcAcc uint32 // source accumulator offset (when !UseImm)
	Len    uint32 // elements
	// STORE extra: right-shift applied when narrowing acc to int8.
	Shift uint8
}

// InstrSize is the encoded instruction size in bytes.
const InstrSize = 48

// Encode serializes the instruction.
func (i *Instr) Encode() [InstrSize]byte {
	var b [InstrSize]byte
	b[0] = byte(i.Op)
	var flags byte
	if i.PopPrev {
		flags |= 1
	}
	if i.PopNext {
		flags |= 2
	}
	if i.PushPrev {
		flags |= 4
	}
	if i.PushNext {
		flags |= 8
	}
	if i.ResetAcc {
		flags |= 16
	}
	if i.UseImm {
		flags |= 32
	}
	b[1] = flags
	b[2] = byte(i.Buf)
	b[3] = byte(i.Alu)
	binary.LittleEndian.PutUint32(b[4:], i.SRAMBase)
	binary.LittleEndian.PutUint64(b[8:], i.DRAM)
	binary.LittleEndian.PutUint16(b[16:], i.Rows)
	binary.LittleEndian.PutUint16(b[18:], i.Cols)
	binary.LittleEndian.PutUint32(b[20:], i.Stride)
	binary.LittleEndian.PutUint16(b[24:], i.M)
	binary.LittleEndian.PutUint16(b[26:], i.N)
	binary.LittleEndian.PutUint16(b[28:], i.K)
	binary.LittleEndian.PutUint32(b[30:], i.InBase)
	binary.LittleEndian.PutUint32(b[34:], i.WgtBase)
	binary.LittleEndian.PutUint32(b[38:], i.AccBase)
	binary.LittleEndian.PutUint32(b[42:], i.Len)
	b[46] = byte(i.Shift)
	// Imm/SrcAcc share bytes 30..37 with the GEMM operand bases: an ALU
	// instruction has no GEMM fields.
	if i.Op == OpAlu {
		binary.LittleEndian.PutUint32(b[30:], uint32(i.Imm))
		binary.LittleEndian.PutUint32(b[34:], i.SrcAcc)
	}
	return b
}

// DecodeInstr parses one encoded instruction.
func DecodeInstr(b []byte) (Instr, error) {
	if len(b) < InstrSize {
		return Instr{}, fmt.Errorf("vta: short instruction (%d bytes)", len(b))
	}
	var i Instr
	i.Op = Opcode(b[0])
	if i.Op > OpFinish {
		return Instr{}, fmt.Errorf("vta: bad opcode %d", b[0])
	}
	flags := b[1]
	i.PopPrev = flags&1 != 0
	i.PopNext = flags&2 != 0
	i.PushPrev = flags&4 != 0
	i.PushNext = flags&8 != 0
	i.ResetAcc = flags&16 != 0
	i.UseImm = flags&32 != 0
	i.Buf = Buffer(b[2])
	i.Alu = AluOp(b[3])
	i.SRAMBase = binary.LittleEndian.Uint32(b[4:])
	i.DRAM = binary.LittleEndian.Uint64(b[8:])
	i.Rows = binary.LittleEndian.Uint16(b[16:])
	i.Cols = binary.LittleEndian.Uint16(b[18:])
	i.Stride = binary.LittleEndian.Uint32(b[20:])
	i.M = binary.LittleEndian.Uint16(b[24:])
	i.N = binary.LittleEndian.Uint16(b[26:])
	i.K = binary.LittleEndian.Uint16(b[28:])
	if i.Op == OpAlu {
		i.Imm = int32(binary.LittleEndian.Uint32(b[30:]))
		i.SrcAcc = binary.LittleEndian.Uint32(b[34:])
	} else {
		i.InBase = binary.LittleEndian.Uint32(b[30:])
		i.WgtBase = binary.LittleEndian.Uint32(b[34:])
	}
	i.AccBase = binary.LittleEndian.Uint32(b[38:])
	i.Len = binary.LittleEndian.Uint32(b[42:])
	i.Shift = b[46]
	return i, nil
}

// WriteProgram encodes a program contiguously into memory at base and
// returns the byte length.
func WriteProgram(m *mem.Memory, base mem.Addr, prog []Instr) int {
	off := base
	for idx := range prog {
		b := prog[idx].Encode()
		m.WriteAt(off, b[:])
		off += InstrSize
	}
	return len(prog) * InstrSize
}
