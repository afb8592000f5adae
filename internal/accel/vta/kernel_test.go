package vta

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"nexsim/internal/xrand"
)

// catalogGemms is every (M, N, K) a GEMM instruction takes when
// vta.Compile lowers the catalog's networks (resnet18/34/50, resnet50-x2,
// yolov3-tiny, matmul at the default scales), heaviest first.
var catalogGemms = [][3]int{
	{16, 128, 1024}, {16, 64, 576}, {16, 256, 512}, {16, 512, 128}, {16, 128, 512},
	{16, 32, 288}, {16, 256, 64}, {16, 64, 256}, {16, 16, 144}, {16, 1024, 128},
	{16, 128, 384}, {16, 128, 128}, {16, 16, 147}, {16, 128, 32}, {16, 128, 576},
	{16, 16, 27}, {16, 32, 128}, {16, 32, 147}, {16, 256, 256}, {16, 64, 864},
	{16, 64, 288}, {16, 32, 144}, {16, 128, 256}, {16, 64, 128}, {16, 64, 16},
	{16, 256, 128}, {16, 16, 64}, {16, 32, 32}, {16, 63, 64}, {16, 32, 64},
	{16, 63, 128}, {16, 16, 16},
}

// corePair is the kernel's core and the reference's, holding the same
// SRAM contents.
type corePair struct{ got, want *Core }

func newCorePair(seed uint64) corePair {
	c := NewCore()
	copy(c.Input, randI8(xrand.New(seed).Derive("in"), len(c.Input)))
	copy(c.Weight, randI8(xrand.New(seed).Derive("wgt"), len(c.Weight)))
	rng := xrand.New(seed).Derive("acc")
	for j := range c.Acc {
		c.Acc[j] = int32(rng.Uint64())
	}
	return corePair{c, cloneCore(c)}
}

func cloneCore(c *Core) *Core {
	return &Core{Input: slices.Clone(c.Input), Weight: slices.Clone(c.Weight), Acc: slices.Clone(c.Acc)}
}

// check runs one GEMM or ALU instruction on both cores and fails unless
// they return the same error and leave the same accumulators.
func (p corePair) check(t *testing.T, i Instr) {
	t.Helper()
	var got, want error
	if i.Op == OpAlu {
		got, want = p.got.Alu(&i), refAlu(p.want, &i)
	} else {
		got, want = p.got.Gemm(&i), refGemm(p.want, &i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%+v: error %v, reference %v", i, got, want)
	}
	if !slices.Equal(p.got.Acc, p.want.Acc) {
		for j := range p.want.Acc {
			if p.got.Acc[j] != p.want.Acc[j] {
				t.Fatalf("%+v: Acc[%d] = %d, reference %d", i, j, p.got.Acc[j], p.want.Acc[j])
			}
		}
	}
}

// fillAcc sets the accumulators of both cores.
func (p corePair) fillAcc(v int32) {
	for j := range p.want.Acc {
		p.got.Acc[j], p.want.Acc[j] = v, v
	}
}

func TestGemmMatchesReference(t *testing.T) {
	shapes := slices.Clone(catalogGemms)
	for _, k := range []int{0, 1, 2, 3, 27, 64} {
		for _, n := range []int{0, 1, 2, 63, 255} {
			for _, m := range []int{0, 1, 2, 3, 15, 16} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	p := newCorePair(1)
	for idx, s := range shapes {
		ins := Instr{Op: OpGemm, M: uint16(s[0]), N: uint16(s[1]), K: uint16(s[2]),
			InBase: uint32(idx), WgtBase: uint32(3 * idx), AccBase: uint32(5 * idx)}
		p.check(t, ins) // onto whatever the accumulators hold
		ins.ResetAcc = true
		p.check(t, ins)
		ins.ResetAcc = false
		for _, v := range []int32{math.MaxInt32, math.MinInt32} {
			p.fillAcc(v) // the sums must wrap as the reference's do
			p.check(t, ins)
		}
	}
}

// The packed sum's bound: the longest K the ISA encodes, every product at
// its largest magnitude, in each pairing of signs — a negative low half
// borrows from the high half and the split must give it back.
func TestGemmAtThePackedSumBound(t *testing.T) {
	p := newCorePair(2)
	const k = math.MaxUint16
	ins := Instr{Op: OpGemm, M: 1, N: 2, K: k}
	for _, w := range [][2]int8{{127, 127}, {-128, 127}, {127, -128}, {-128, -128}} {
		for _, c := range []*Core{p.got, p.want} {
			for j := 0; j < k; j++ {
				c.Input[j], c.Weight[j], c.Weight[k+j] = -128, w[0], w[1]
			}
		}
		for _, acc := range []int32{math.MaxInt32, math.MinInt32, 0} {
			p.fillAcc(acc)
			p.check(t, ins)
		}
	}
	if p.want.Acc[0] != 1_073_725_440 || p.want.Acc[1] != 1_073_725_440 {
		t.Fatalf("reference column sums %d %d, want 65535·2^14 twice", p.want.Acc[0], p.want.Acc[1])
	}
}

// Two GEMMs over one WgtBase with the weights rewritten in between, by a
// LOAD and by a store into the exported slice: the second and third must
// multiply by what the buffer holds now.
func TestGemmSeesWeightReload(t *testing.T) {
	p := newCorePair(3)
	ins := Instr{Op: OpGemm, M: 16, N: 16, K: 144, InBase: 7, WgtBase: 1024, AccBase: 9, ResetAcc: true}
	p.check(t, ins)
	first := slices.Clone(p.got.Acc)

	load := Instr{Op: OpLoad, Buf: BufWeight, SRAMBase: 1024, Rows: 16, Cols: 144}
	data := make([]byte, 16*144)
	for j := range data {
		data[j] = byte(j * 37)
	}
	for _, c := range []*Core{p.got, p.want} {
		if err := c.LoadBytes(&load, data); err != nil {
			t.Fatal(err)
		}
	}
	p.check(t, ins)
	if slices.Equal(p.got.Acc, first) {
		t.Fatal("reloaded weights left the product unchanged")
	}
	second := slices.Clone(p.got.Acc)

	p.got.Weight[1024+5]++
	p.want.Weight[1024+5]++
	p.check(t, ins)
	if slices.Equal(p.got.Acc, second) {
		t.Fatal("a direct weight write left the product unchanged")
	}
}

func TestAluMatchesReference(t *testing.T) {
	p := newCorePair(4)
	for op := AluAdd; op <= AluShr+1; op++ { // one past the last: a bad op
		for _, n := range []uint32{0, 1, 7, 256, 1008} {
			for _, imm := range []int32{0, 7, -3, 37, math.MaxInt32, math.MinInt32} {
				p.check(t, Instr{Op: OpAlu, Alu: op, UseImm: true, Imm: imm, AccBase: 11, Len: n})
			}
			// Disjoint, overlapping ahead, overlapping behind, the same.
			for _, src := range []uint32{4096, 12, 10, 11} {
				p.check(t, Instr{Op: OpAlu, Alu: op, SrcAcc: src, AccBase: 11, Len: n})
			}
			p.check(t, Instr{Op: OpAlu, Alu: op, UseImm: true, AccBase: AccBufSize - n + 1, Len: n})
			p.check(t, Instr{Op: OpAlu, Alu: op, SrcAcc: AccBufSize - n + 1, Len: n})
		}
	}
}

// LOAD and STORE convert what they did before their loops were
// re-sliced, and an out-of-range tile is refused before anything is
// written.
func TestLoadStoreBytes(t *testing.T) {
	c := NewCore()
	data := make([]byte, 4*300)
	for j := range data {
		data[j] = byte(j*89 + 3)
	}
	for _, buf := range []Buffer{BufInput, BufWeight, BufAcc} {
		if err := c.LoadBytes(&Instr{Op: OpLoad, Buf: buf, SRAMBase: 17, Rows: 3, Cols: 100}, data); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 300; j++ {
		if c.Input[17+j] != int8(data[j]) || c.Weight[17+j] != int8(data[j]) ||
			c.Acc[17+j] != int32(binary.LittleEndian.Uint32(data[4*j:])) {
			t.Fatalf("element %d loaded wrong", j)
		}
	}
	if c.Input[16] != 0 || c.Input[317] != 0 || c.Acc[16] != 0 || c.Acc[317] != 0 {
		t.Fatal("a load wrote outside its tile")
	}
	copy(c.Acc, []int32{-129 << 3, -128 << 3, -1, 0, 5 << 3, 127 << 3, 128 << 3, math.MaxInt32, math.MinInt32})
	out, err := c.StoreBytes(&Instr{Op: OpStore, Rows: 3, Cols: 3, Shift: 3})
	if want := []byte{0x80, 0x80, 0xff, 0, 5, 127, 127, 127, 0x80}; err != nil || !slices.Equal(out, want) {
		t.Fatalf("store narrowed to % x (%v), want % x", out, err, want)
	}
	if out, err := c.StoreBytes(&Instr{Op: OpStore, SRAMBase: 5}); err != nil || len(out) != 0 {
		t.Fatalf("empty store: % x, %v", out, err)
	}

	before := cloneCore(c)
	for _, ins := range []Instr{
		{Op: OpLoad, Buf: BufInput, SRAMBase: InputBufSize - 299, Rows: 3, Cols: 100},
		{Op: OpLoad, Buf: BufWeight, SRAMBase: WeightBufSize - 299, Rows: 3, Cols: 100},
		{Op: OpLoad, Buf: BufAcc, SRAMBase: AccBufSize - 299, Rows: 3, Cols: 100},
		{Op: OpLoad, Buf: BufAcc + 1, Rows: 1, Cols: 1},
	} {
		if c.LoadBytes(&ins, data) == nil {
			t.Fatalf("%+v accepted", ins)
		}
	}
	if !slices.Equal(c.Input, before.Input) || !slices.Equal(c.Weight, before.Weight) || !slices.Equal(c.Acc, before.Acc) {
		t.Fatal("a refused load wrote something")
	}
}

// gemmFuzzRecord is the bytes one fuzz instruction takes: kind, flags,
// five 16-bit fields and a 32-bit immediate.
const gemmFuzzRecord = 16

// FuzzGemmMatchesReference interprets ops as an instruction sequence over
// a kernel core and a reference core — GEMMs and ALU ops of any shape and
// base, in range or not, between LOADs into all three buffers and direct
// writes into Weight — and compares the returned error and every
// accumulator after each one.
func FuzzGemmMatchesReference(f *testing.F) {
	start := newCorePair(5).got // generated once: it is most of a short exec
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48*gemmFuzzRecord {
			ops = ops[:48*gemmFuzzRecord]
		}
		p := corePair{cloneCore(start), cloneCore(start)}
		for ; len(ops) >= gemmFuzzRecord; ops = ops[gemmFuzzRecord:] {
			kind, flags := ops[0], ops[1]
			var v [5]uint16
			for j := range v {
				v[j] = binary.LittleEndian.Uint16(ops[2+2*j:])
			}
			imm := binary.LittleEndian.Uint32(ops[12:])
			switch kind % 4 {
			case 0: // M below 32 keeps one exec in the low milliseconds
				p.check(t, Instr{Op: OpGemm, M: v[0] % 32, N: v[1], K: v[2], ResetAcc: flags&1 != 0,
					InBase: uint32(v[3]), WgtBase: uint32(v[4]) * 4, AccBase: imm % (AccBufSize + 2)})
			case 1:
				p.check(t, Instr{Op: OpAlu, Alu: AluOp((flags >> 4) % 5), UseImm: flags&1 != 0, Imm: int32(imm),
					SrcAcc: uint32(v[0]), AccBase: uint32(v[1]), Len: uint32(v[2])})
			case 2: // a LOAD of one repeated byte or of a counting pattern
				ins := Instr{Op: OpLoad, Buf: Buffer((flags >> 4) % 4), SRAMBase: uint32(v[0]) * 4, Rows: v[1] % 64, Cols: v[2] % 4096}
				data := make([]byte, 4*int(ins.Rows)*int(ins.Cols))
				for j := range data {
					data[j] = byte(imm)
					if flags&1 != 0 {
						data[j] += byte(j * 29)
					}
				}
				// Refused (out of range, no such buffer) on both cores or on neither.
				_, _ = p.got.LoadBytes(&ins, data), p.want.LoadBytes(&ins, data)
			case 3:
				at := int(imm) % WeightBufSize
				p.got.Weight[at], p.want.Weight[at] = int8(flags), int8(flags)
			}
		}
	})
}

// gemmBenchShapes are the five shapes a cold nexdsim_tables pass spends
// the most GEMM time in (the plan memo runs each distinct operand set
// once, so these are not the five largest MAC counts of catalogGemms).
var gemmBenchShapes = [][3]int{{16, 16, 147}, {16, 64, 576}, {16, 256, 512}, {16, 128, 576}, {16, 16, 144}}

func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmBenchShapes {
		ins := Instr{Op: OpGemm, M: uint16(s[0]), N: uint16(s[1]), K: uint16(s[2]), ResetAcc: true}
		for _, impl := range []struct {
			name string
			run  func(*Core, *Instr) error
		}{{"kernel", (*Core).Gemm}, {"ref", refGemm}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s[0], s[1], s[2], impl.name), func(b *testing.B) {
				c := newCorePair(6).got
				b.ReportAllocs()
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					if err := impl.run(c, &ins); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s[0]*s[1]*s[2]), "ns/MAC")
			})
		}
	}
}
