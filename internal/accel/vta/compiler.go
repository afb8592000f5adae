package vta

import (
	"fmt"

	"nexsim/internal/mem"
)

// GemmTask describes a quantized dense GEMM for the compiler:
// C[M][N] = clamp((A[M][K] · B[N][K]ᵀ + bias) >> Shift), optionally
// ReLU'd. This is the primitive TVM lowers convolutions to (im2col).
type GemmTask struct {
	M, N, K int
	A       mem.Addr // int8 A[M][K], row-major
	B       mem.Addr // int8 B[N][K], row-major
	Bias    mem.Addr // int32 bias block (16 replicated rows of N), 0 = none
	C       mem.Addr // int8 C[M][N], row-major
	Shift   uint8
	ReLU    bool
}

const tileRows = 16 // output rows per tile (one acc half holds 16*N)

// Compile lowers a GEMM into a VTA instruction stream with
// double-buffered loads and the dependency flags that let the load,
// compute and store modules pipeline (the VTA 4-queue protocol).
func Compile(t GemmTask) ([]Instr, error) {
	if t.M <= 0 || t.N <= 0 || t.K <= 0 {
		return nil, fmt.Errorf("vta: empty gemm %dx%dx%d", t.M, t.N, t.K)
	}
	if t.M%tileRows != 0 {
		return nil, fmt.Errorf("vta: M=%d must be a multiple of %d", t.M, tileRows)
	}
	if 2*tileRows*t.N > AccBufSize {
		return nil, fmt.Errorf("vta: N=%d too large for double-buffered accumulator", t.N)
	}

	// K-chunking: when the operands exceed SRAM, the schedule streams K
	// in chunks, reloading weight and input slices per chunk (what the
	// TVM schedule does for large layers). When everything fits,
	// weights stay resident for the whole task.
	kc := t.K
	if m := InputBufSize / (2 * tileRows); kc > m {
		kc = m
	}
	if m := WeightBufSize / (2 * t.N); kc > m {
		kc = m
	}
	if kc < 1 {
		return nil, fmt.Errorf("vta: N=%d too large for weight SRAM", t.N)
	}
	chunks := (t.K + kc - 1) / kc
	if chunks > 1 {
		return compileChunked(t, kc, chunks)
	}

	tiles := t.M / tileRows
	prog := make([]Instr, 0, 1+tiles*(2+tileTail(t))+drainLen(tiles))
	// Weights stay resident for the whole task.
	prog = append(prog, Instr{
		Op: OpLoad, Buf: BufWeight, SRAMBase: 0,
		DRAM: uint64(t.B), Rows: uint16(t.N), Cols: uint16(t.K),
	})

	for ti := 0; ti < tiles; ti++ {
		half := uint32(ti % 2)
		inBase := half * uint32(tileRows*t.K)
		accBase := half * uint32(tileRows*t.N)

		// Input tile; the last load of the tile's group pushes to compute.
		load := Instr{
			Op: OpLoad, Buf: BufInput, SRAMBase: inBase,
			DRAM: uint64(t.A) + uint64(ti*tileRows*t.K),
			Rows: tileRows, Cols: uint16(t.K),
			PopNext: ti >= 2, // wait until compute freed this half
		}
		if t.Bias == 0 {
			load.PushNext = true
			prog = append(prog, load)
		} else {
			prog = append(prog, load)
			prog = append(prog, Instr{
				Op: OpLoad, Buf: BufAcc, SRAMBase: accBase,
				DRAM: uint64(t.Bias), Rows: tileRows, Cols: uint16(t.N),
				PushNext: true,
			})
		}

		// GEMM; frees the load half when done, waits for the store half
		// to drain before overwriting it.
		prog = append(prog, Instr{
			Op: OpGemm, M: tileRows, N: uint16(t.N), K: uint16(t.K),
			InBase: inBase, WgtBase: 0, AccBase: accBase,
			ResetAcc: t.Bias == 0,
			PopPrev:  true,
			PopNext:  ti >= 2,
			// Free the input half only when a later load will reclaim it,
			// so dependency tokens balance exactly per task.
			PushPrev: ti < tiles-2,
		})

		// Quantization and activation.
		if t.Shift > 0 {
			prog = append(prog, Instr{
				Op: OpAlu, Alu: AluShr, UseImm: true, Imm: int32(t.Shift),
				AccBase: accBase, Len: uint32(tileRows * t.N),
			})
		}
		if t.ReLU {
			prog = append(prog, Instr{
				Op: OpAlu, Alu: AluMax, UseImm: true, Imm: 0,
				AccBase: accBase, Len: uint32(tileRows * t.N),
			})
		}
		// The last compute op of the tile releases the store.
		prog[len(prog)-1].PushNext = true

		prog = append(prog, Instr{
			Op: OpStore, Buf: BufAcc, SRAMBase: accBase,
			DRAM: uint64(t.C) + uint64(ti*tileRows*t.N),
			Rows: tileRows, Cols: uint16(t.N),
			PopPrev:  true,
			PushPrev: true,
		})
	}

	return appendDrain(prog, tiles), nil
}

// tileTail counts the instructions a tile carries besides its operand
// loads and GEMMs: the bias load, the ALU passes and the store.
func tileTail(t GemmTask) int {
	n := 1
	if t.Bias != 0 {
		n++
	}
	if t.Shift > 0 {
		n++
	}
	if t.ReLU {
		n++
	}
	return n
}

// drainLen is how many instructions appendDrain appends.
func drainLen(tiles int) int { return min(tiles, 2) + 1 }

// appendDrain ends a program: it drains the outstanding store→compute
// tokens so FINISH orders after the final stores — stores pushed `tiles`
// tokens and the GEMMs of tiles 2..n-1 consumed tiles-2 of them.
func appendDrain(prog []Instr, tiles int) []Instr {
	for i := 0; i < min(tiles, 2); i++ {
		prog = append(prog, Instr{Op: OpAlu, Alu: AluAdd, UseImm: true, Len: 0, PopNext: true})
	}
	return append(prog, Instr{Op: OpFinish})
}

// compileChunked emits the K-streaming schedule: per output tile, the K
// dimension is processed in chunks with double-buffered weight and input
// slices, accumulating into the tile's accumulator half.
func compileChunked(t GemmTask, kc, chunks int) ([]Instr, error) {
	tiles := t.M / tileRows
	groups := tiles * chunks
	prog := make([]Instr, 0, tiles*(3*chunks+tileTail(t))+drainLen(tiles))
	g := 0
	for ti := 0; ti < tiles; ti++ {
		accBase := uint32(ti%2) * uint32(tileRows*t.N)
		for ci := 0; ci < chunks; ci++ {
			k0 := ci * kc
			kn := kc
			if k0+kn > t.K {
				kn = t.K - k0
			}
			half := uint32(g % 2)
			inBase := half * uint32(tileRows*kc)
			wgtBase := half * uint32(t.N*kc)

			// Weight slice: N rows of kn, strided by K.
			prog = append(prog, Instr{
				Op: OpLoad, Buf: BufWeight, SRAMBase: wgtBase,
				DRAM: uint64(t.B) + uint64(k0),
				Rows: uint16(t.N), Cols: uint16(kn), Stride: uint32(t.K),
				PopNext: g >= 2,
			})
			// Input slice: tile rows of kn, strided by K.
			load := Instr{
				Op: OpLoad, Buf: BufInput, SRAMBase: inBase,
				DRAM: uint64(t.A) + uint64(ti*tileRows*t.K+k0),
				Rows: tileRows, Cols: uint16(kn), Stride: uint32(t.K),
			}
			if ci == 0 && t.Bias != 0 {
				prog = append(prog, load)
				prog = append(prog, Instr{
					Op: OpLoad, Buf: BufAcc, SRAMBase: accBase,
					DRAM: uint64(t.Bias), Rows: tileRows, Cols: uint16(t.N),
					PushNext: true,
				})
			} else {
				load.PushNext = true
				prog = append(prog, load)
			}

			prog = append(prog, Instr{
				Op: OpGemm, M: tileRows, N: uint16(t.N), K: uint16(kn),
				InBase: inBase, WgtBase: wgtBase, AccBase: accBase,
				ResetAcc: ci == 0 && t.Bias == 0,
				PopPrev:  true,
				PopNext:  ci == 0 && ti >= 2, // acc half drained by tile ti-2's store
				PushPrev: g < groups-2,
			})
			g++
		}

		if t.Shift > 0 {
			prog = append(prog, Instr{
				Op: OpAlu, Alu: AluShr, UseImm: true, Imm: int32(t.Shift),
				AccBase: accBase, Len: uint32(tileRows * t.N),
			})
		}
		if t.ReLU {
			prog = append(prog, Instr{
				Op: OpAlu, Alu: AluMax, UseImm: true, Imm: 0,
				AccBase: accBase, Len: uint32(tileRows * t.N),
			})
		}
		prog[len(prog)-1].PushNext = true
		prog = append(prog, Instr{
			Op: OpStore, Buf: BufAcc, SRAMBase: accBase,
			DRAM: uint64(t.C) + uint64(ti*tileRows*t.N),
			Rows: tileRows, Cols: uint16(t.N),
			PopPrev:  true,
			PushPrev: true,
		})
	}
	return appendDrain(prog, tiles), nil
}

// StoreOperands writes A, B (and bias) into simulated memory in the
// layout Compile expects. bias may be nil.
func StoreOperands(m *mem.Memory, t GemmTask, a, b []int8, bias []int32) {
	writeI8 := func(addr mem.Addr, v []int8) {
		buf := make([]byte, len(v))
		for i, x := range v {
			buf[i] = byte(x)
		}
		m.WriteAt(addr, buf)
	}
	if len(a) != t.M*t.K || len(b) != t.N*t.K {
		panic("vta: operand shape mismatch")
	}
	writeI8(t.A, a)
	writeI8(t.B, b)
	if t.Bias != 0 && bias != nil {
		// Replicate the N-vector across tileRows rows, int32 LE.
		buf := make([]byte, 4*tileRows*t.N)
		for r := 0; r < tileRows; r++ {
			for j, v := range bias {
				off := 4 * (r*t.N + j)
				buf[off] = byte(v)
				buf[off+1] = byte(v >> 8)
				buf[off+2] = byte(v >> 16)
				buf[off+3] = byte(v >> 24)
			}
		}
		m.WriteAt(t.Bias, buf)
	}
}

// ReferenceGemm computes the expected C for a GemmTask on the CPU — the
// software fallback and the test oracle.
func ReferenceGemm(t GemmTask, a, b []int8, bias []int32) []int8 {
	out := make([]int8, t.M*t.N)
	for mi := 0; mi < t.M; mi++ {
		for ni := 0; ni < t.N; ni++ {
			var sum int32
			if bias != nil {
				sum = bias[ni]
			}
			for ki := 0; ki < t.K; ki++ {
				sum += int32(a[mi*t.K+ki]) * int32(b[ni*t.K+ki])
			}
			sum >>= uint(t.Shift)
			if t.ReLU && sum < 0 {
				sum = 0
			}
			if sum > 127 {
				sum = 127
			}
			if sum < -128 {
				sum = -128
			}
			out[mi*t.N+ni] = int8(sum)
		}
	}
	return out
}
