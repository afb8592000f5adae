package vta

import "fmt"

// refGemm and refAlu are the loops Core.Gemm and Core.Alu replaced, kept
// verbatim: the kernels in func.go must leave Acc and return errors
// exactly as these do (DESIGN.md §4.3, "functional kernels").

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
