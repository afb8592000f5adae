package vta

import (
	"encoding/binary"
	"fmt"
)

// Core is the functional model of the VTA datapath: the three SRAMs and
// the semantics of each instruction. It is the functionality track of
// the di-simulated device and also the reference the tests compare
// hardware results against.
type Core struct {
	Input  []int8  // InputBufSize
	Weight []int8  // WeightBufSize
	Acc    []int32 // AccBufSize

	pack []int64 // Gemm's scratch: one packed pair of weight rows
}

// NewCore allocates the SRAMs.
func NewCore() *Core {
	return &Core{
		Input:  make([]int8, InputBufSize),
		Weight: make([]int8, WeightBufSize),
		Acc:    make([]int32, AccBufSize),
	}
}

// LoadBytes fills a buffer region from raw DRAM bytes (the data of a
// LOAD DMA). For BufAcc the data is int32 little-endian.
func (c *Core) LoadBytes(i *Instr, data []byte) error {
	base, n := int(i.SRAMBase), int(i.Rows)*int(i.Cols)
	switch i.Buf {
	case BufInput:
		if base+n > len(c.Input) {
			return fmt.Errorf("vta: input load out of range")
		}
		loadI8(c.Input[base:base+n], data)
	case BufWeight:
		if base+n > len(c.Weight) {
			return fmt.Errorf("vta: weight load out of range")
		}
		loadI8(c.Weight[base:base+n], data)
	case BufAcc:
		if base+n > len(c.Acc) {
			return fmt.Errorf("vta: acc load out of range")
		}
		acc := c.Acc[base : base+n]
		data = data[:4*n]
		for j := range acc {
			acc[j] = int32(binary.LittleEndian.Uint32(data[4*j:]))
		}
	default:
		return fmt.Errorf("vta: bad load buffer %d", i.Buf)
	}
	return nil
}

func loadI8(dst []int8, data []byte) {
	data = data[:len(dst)]
	for j := range dst {
		dst[j] = int8(data[j])
	}
}

// Gemm executes acc[M][N] += in[M][K] * wgt[N][K], two weight rows and
// four input rows at a time: packRows folds a pair of weight rows into one
// int64 per K-step, dot4 multiplies it by four input rows, and each 64-bit
// sum splits exactly into its two column sums (|a·w| ≤ 2^14 and K ≤ 65535
// keep both below 2^30; DESIGN.md §4.3). Column sums are added to Acc with
// int32 wraparound, which no summation order changes.
func (c *Core) Gemm(i *Instr) error {
	m, n, k := int(i.M), int(i.N), int(i.K)
	if int(i.InBase)+m*k > len(c.Input) ||
		int(i.WgtBase)+n*k > len(c.Weight) ||
		int(i.AccBase)+m*n > len(c.Acc) {
		return fmt.Errorf("vta: gemm operand out of range")
	}
	in := c.Input[int(i.InBase):][:m*k]
	wgt := c.Weight[int(i.WgtBase):][:n*k]
	acc := c.Acc[int(i.AccBase):][:m*n]
	if i.ResetAcc {
		clear(acc)
	}
	if cap(c.pack) < k {
		c.pack = make([]int64, k)
	}
	pack := c.pack[:k]
	for ni := 0; ni < n; ni += 2 {
		// An odd last row pairs with itself; its high sums are dropped.
		packRows(pack, wgt[ni*k:][:k], wgt[min(ni+1, n-1)*k:][:k])
		for mi := 0; mi < m; mi += 4 {
			// Rows past the last repeat it; their sums are dropped.
			row := func(r int) []int8 { return in[min(mi+r, m-1)*k:][:k] }
			var sums [4]int64
			sums[0], sums[1], sums[2], sums[3] = dot4(row(0), row(1), row(2), row(3), pack)
			for r, s := range sums[:min(4, m-mi)] {
				out := acc[(mi+r)*n+ni:]
				lo := int32(s)
				out[0] += lo
				if ni+1 < n {
					out[1] += int32((s - int64(lo)) >> 32)
				}
			}
		}
	}
	return nil
}

// packRows writes int64(w0[k]) + int64(w1[k])<<32 for every K-step: one
// multiply by it is two MACs.
//
//simlint:hotpath once per pair of weight rows of every GEMM instruction
func packRows(pack []int64, w0, w1 []int8) {
	w0, w1 = w0[:len(pack)], w1[:len(pack)]
	for k := range pack {
		pack[k] = int64(w0[k]) + int64(w1[k])<<32
	}
}

// dot4 returns the packed dot products of four input rows with one packed
// pair of weight rows. It stays out of line: inlined into Gemm's loop nest
// its accumulators live on the stack and every MAC waits on a
// store-forward.
//
//simlint:hotpath the int8 MACs of the functional track, eight per step
//go:noinline
func dot4(r0, r1, r2, r3 []int8, pack []int64) (s0, s1, s2, s3 int64) {
	r1, r2, r3, pack = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)], pack[:len(r0)]
	for k, a := range r0 {
		p := pack[k]
		s0 += int64(a) * p
		s1 += int64(r1[k]) * p
		s2 += int64(r2[k]) * p
		s3 += int64(r3[k]) * p
	}
	return s0, s1, s2, s3
}

// Alu executes a vector operation over the accumulator buffer, in
// ascending element order (source and destination may overlap).
func (c *Core) Alu(i *Instr) error {
	n := int(i.Len)
	dst := int(i.AccBase)
	if dst+n > len(c.Acc) {
		return fmt.Errorf("vta: alu dst out of range")
	}
	src := int(i.SrcAcc)
	if !i.UseImm && src+n > len(c.Acc) {
		return fmt.Errorf("vta: alu src out of range")
	}
	if n == 0 {
		return nil
	}
	d, imm := c.Acc[dst:dst+n], i.Imm
	var s []int32
	if !i.UseImm {
		s = c.Acc[src : src+n]
	}
	switch {
	case i.Alu == AluAdd && i.UseImm:
		for j := range d {
			d[j] += imm
		}
	case i.Alu == AluAdd:
		for j := range d {
			d[j] += s[j]
		}
	case i.Alu == AluMax && i.UseImm:
		for j := range d {
			d[j] = max(d[j], imm)
		}
	case i.Alu == AluMax:
		for j := range d {
			d[j] = max(d[j], s[j])
		}
	case i.Alu == AluMin && i.UseImm:
		for j := range d {
			d[j] = min(d[j], imm)
		}
	case i.Alu == AluMin:
		for j := range d {
			d[j] = min(d[j], s[j])
		}
	case i.Alu == AluShr && i.UseImm:
		for j := range d {
			d[j] >>= uint(imm & 31)
		}
	case i.Alu == AluShr:
		for j := range d {
			d[j] >>= uint(s[j] & 31)
		}
	default:
		return fmt.Errorf("vta: bad alu op %d", i.Alu)
	}
	return nil
}

// StoreBytes narrows an accumulator tile to int8 (with the instruction's
// right shift and saturation) and returns the DRAM bytes of the STORE
// DMA.
func (c *Core) StoreBytes(i *Instr) ([]byte, error) {
	base, n := int(i.SRAMBase), int(i.Rows)*int(i.Cols)
	if base+n > len(c.Acc) {
		return nil, fmt.Errorf("vta: store out of range")
	}
	out := make([]byte, n)
	for j, v := range c.Acc[base : base+n] {
		out[j] = byte(max(-128, min(127, v>>uint(i.Shift))))
	}
	return out, nil
}
