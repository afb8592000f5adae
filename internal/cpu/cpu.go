// Package cpu implements a gem5-style cycle-level CPU timing model.
//
// Compute segments (isa.Work) are expanded into synthetic instruction
// streams and simulated instruction by instruction: every instruction is
// issued through a superscalar front end, renamed onto a register
// scoreboard that tracks true dependencies, memory operations probe a
// real set-associative L1/L2 tag hierarchy, and branches run through a
// predictor. This is deliberately expensive — host cost is
// O(instructions) with per-instruction bookkeeping, four-plus orders of
// magnitude above NEX's native-time accounting — and its timing model
// systematically deviates from true native time the way gem5's does
// (configured "using publicly available information", §6.1, yet still
// 13% off on average, §6.5).
package cpu

import (
	"math"
	"math/bits"

	"nexsim/internal/cachesim"
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/vclock"
)

// Config describes the modeled core.
type Config struct {
	Name  string
	Clock vclock.Hz

	// IssueWidth is the superscalar width (default 4).
	IssueWidth int

	// Latencies in cycles.
	ALULat, MulDivLat, L1Lat int64

	// LLCCycles / DRAMCycles are the probabilistic backing latencies
	// behind the modeled L2 (defaults 50 / 220).
	LLCCycles, DRAMCycles int64

	// LLCBytes bounds probabilistic LLC residency (default 32MB).
	LLCBytes int64

	// MispredictPenalty in cycles (default 16); PredictAccuracy is the
	// branch predictor hit rate (default 0.94).
	MispredictPenalty int64
	PredictAccuracy   float64

	// MLP divides miss penalties beyond L1 to model overlapped misses
	// (default 3).
	MLP float64
}

func (c Config) withDefaults() Config {
	if c.Clock == 0 {
		c.Clock = 3 * vclock.GHz
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.ALULat == 0 {
		c.ALULat = 1
	}
	if c.MulDivLat == 0 {
		c.MulDivLat = 4
	}
	if c.L1Lat == 0 {
		c.L1Lat = 4
	}
	if c.LLCCycles == 0 {
		c.LLCCycles = 50
	}
	if c.DRAMCycles == 0 {
		c.DRAMCycles = 220
	}
	if c.LLCBytes == 0 {
		c.LLCBytes = 32 << 20
	}
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 16
	}
	if c.PredictAccuracy == 0 {
		c.PredictAccuracy = 0.94
	}
	if c.MLP == 0 {
		c.MLP = 3
	}
	return c
}

// fp is the fixed-point resolution of the cycle accumulators (1/8 cycle).
const fp = 8

// backing is the probabilistic memory level behind the modeled L2: an
// L2 miss hits the LLC with a probability derived from the working-set
// size, else DRAM. It implements memsys.Port under the tag-array caches.
type backing struct {
	llcHitP uint64 // out of 1<<16
	x       uint64 // dice state
	llcDur  vclock.Duration
	dramDur vclock.Duration
}

func (b *backing) Access(at vclock.Time, _ mem.AccessKind, _ mem.Addr, _ int) vclock.Time {
	b.x ^= b.x << 13
	b.x ^= b.x >> 7
	b.x ^= b.x << 17
	if b.x&0xffff < b.llcHitP {
		return at.Add(b.llcDur)
	}
	return at.Add(b.dramDur)
}

var _ memsys.Port = (*backing)(nil)

// Model is one simulated core's timing model. It satisfies the
// exacthost.ComputeModel interface.
type Model struct {
	cfg Config

	l1, l2 *cachesim.Cache
	back   *backing

	// Scoreboard: ready time per renamed register, in fp cycles. The
	// pool of 64 names models renaming: most sources were produced long
	// enough ago to be ready, so only genuinely tight dependency chains
	// serialize.
	regReady [64]int64

	// Block buffers of the Duration kernel: the PRNG draws, the latency of
	// every instruction (sign bit set on a mispredicted branch; latencies
	// are non-negative cycle counts, so the bit is free) and the block
	// positions of the loads and stores.
	xs     [blockLen]uint64
	lats   [blockLen]int64
	memIdx [blockLen]uint8

	// latMemo caches memLat's hierarchy-latency → fp-cycle conversions.
	latMemo [8]struct {
		d   vclock.Duration
		lat int64
	}
	memoN int

	// Stats.
	Instructions int64
	Cycles       int64
	Mispredicts  int64
}

// New builds a model.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	m := &Model{cfg: cfg}
	m.back = &backing{
		x:       0x1234567,
		llcDur:  cfg.Clock.CyclesDur(int64(float64(cfg.LLCCycles) / cfg.MLP)),
		dramDur: cfg.Clock.CyclesDur(int64(float64(cfg.DRAMCycles) / cfg.MLP)),
	}
	m.l2 = cachesim.New(cachesim.Config{
		Name: "cpu-l2", Size: 1 << 20, LineSize: 64, Assoc: 16,
		HitLatency: cfg.Clock.CyclesDur(14 / int64(cfg.MLP)),
	}, m.back)
	m.l1 = cachesim.New(cachesim.Config{
		Name: "cpu-l1d", Size: 32 << 10, LineSize: 64, Assoc: 8,
		HitLatency: cfg.Clock.CyclesDur(1),
	}, m.l2)
	return m
}

// Clock returns the modeled core frequency.
func (m *Model) Clock() vclock.Hz { return m.cfg.Clock }

// L1 exposes the modeled L1 data cache (for tests and stats).
func (m *Model) L1() *cachesim.Cache { return m.l1 }

// Duration simulates the instruction stream of w and returns its modeled
// execution time. This call burns host CPU proportional to w.Instr.
//
// The stream is simulated in blocks of blockLen instructions, each block
// in three call-free passes (DESIGN.md §4.1): expand draws the PRNG stream
// and classifies every instruction, memory sends the loads and stores
// through the tag hierarchy in program order, retire runs the scoreboard
// and the front end. Splitting is exact because neither the PRNG stream
// nor the cache state ever depends on simulated time.
func (m *Model) Duration(w isa.Work) vclock.Duration {
	if w.Instr <= 0 {
		return 0
	}
	cfg := m.cfg

	ws := max(w.WorkingSet, 64)
	wsLines := uint64(ws / 64)
	// Locality: most accesses hit a hot subset that fits in L1.
	hotLines := min(max(wsLines/16, 1), 256)

	// LLC residency behind the L2 tag model.
	llcHit := 0.98
	if ws > cfg.LLCBytes {
		llcHit = 0.98 * float64(cfg.LLCBytes) / float64(ws)
	}
	m.back.llcHitP = uint64(llcHit * diceMax)

	var k kernel
	k.loadT = diceThreshold(w.Mix.Load)
	k.storeT = min(k.loadT+diceThreshold(w.Mix.Store), diceMax)
	k.branchT = min(k.storeT+diceThreshold(w.Mix.Branch), diceMax)
	k.muldivT = min(k.branchT+diceThreshold(w.Mix.MulDiv), diceMax)
	k.predT = diceThreshold(cfg.PredictAccuracy)
	k.lines = [2]recip{newRecip(wsLines), newRecip(hotLines)}
	alu, mul := cfg.ALULat*fp, cfg.MulDivLat*fp
	hit := m.memLat(m.l1.Config().HitLatency)
	k.classLat = [8]int64{alu, alu, mul, mul, alu | math.MinInt64, alu, hit, hit}
	k.issueCost = int64(fp / cfg.IssueWidth)
	// A mispredicted branch redirects the front end to issue+penalty, then
	// consumes its own issue slot like every instruction.
	if mp := cfg.MispredictPenalty * fp; k.issueCost > mp {
		k.mispredStep = k.issueCost
	} else {
		k.mispredStep = mp + k.issueCost
	}

	// Front-end position and retirement horizon, in fp cycles. The
	// scoreboard is per-segment: each Duration call simulates an
	// independent stretch of code.
	m.regReady = [64]int64{}
	k.x = w.Seed | 1
	for left := w.Instr; left > 0; left -= blockLen {
		n := int(min(left, blockLen))
		m.memory(&k, m.expand(&k, n))
		m.retire(&k, n)
	}

	cycles := max(k.maxRetire, k.front) / fp
	m.Instructions += w.Instr
	m.Cycles += cycles
	return cfg.Clock.CyclesDur(cycles)
}

const (
	diceMax = 1 << 16
	hotFrac = 60293 // 92% of memory operations go to the hot lines

	// blockLen is the number of instructions per kernel block: 256, so a
	// uint8 indexes the block buffers without a bounds check.
	blockLen = 256
)

// diceThreshold converts an instruction-mix fraction into a 16-bit dice
// threshold, saturating out-of-range (and NaN) fractions so the result
// never depends on the platform's float→uint conversion of a negative or
// oversized value.
func diceThreshold(frac float64) uint64 {
	v := frac * diceMax
	if !(v > 0) {
		return 0
	}
	if v >= diceMax {
		return diceMax
	}
	return uint64(v)
}

// recip is an exact multiply-high replacement for n % d with a
// loop-invariant d: q = mulhi(2n, m) >> s equals n/d for every n < 2^63.
// For a power of two m is 2^63; otherwise m = ceil(2^(63+s)/d) with
// 2^(s-1) < d < 2^s, whose rounding error e = m·d − 2^(63+s) < d keeps
// n·e below 2^(63+s), so the product's floor cannot cross a multiple of d.
type recip struct {
	m, d uint64
	s    uint
}

func newRecip(d uint64) recip {
	t := uint(bits.Len64(d)) - 1
	if d&(d-1) == 0 {
		return recip{m: 1 << 63, d: d, s: t}
	}
	q, _ := bits.Div64(1<<t, 0, d)
	return recip{m: q + 1, d: d, s: t + 1}
}

func (r *recip) mod(n uint64) uint64 {
	hi, _ := bits.Mul64(n<<1, r.m)
	return n - hi>>(r.s&63)*r.d
}

// kernel holds one Duration call's loop invariants and the PRNG and
// front-end state carried from block to block.
type kernel struct {
	loadT, storeT, branchT, muldivT, predT uint64
	lines                                  [2]recip // [0] whole working set, [1] hot subset
	// classLat is indexed by class<<1 | predicted: the latency of an ALU,
	// mul/div, branch (sign bit set when mispredicted) or L1-hit memory
	// instruction.
	classLat               [8]int64
	issueCost, mispredStep int64
	x                      uint64
	front, maxRetire       int64
}

// expand draws the next n values of the PRNG stream into xs, prefills
// lats with each instruction's class latency (an L1 hit for loads and
// stores, with mispredicted branches flagged), and collects the block
// positions of the memory operations in memIdx, returning how many there
// are. Everything is arithmetic
// on comparison sign bits: the instruction class is a coin flip per
// instruction, so a branch on it would mispredict on the host.
//
//simlint:hotpath runs once per simulated instruction
func (m *Model) expand(k *kernel, n int) int {
	storeT, branchT, muldivT, predT := k.storeT, k.branchT, k.muldivT, k.predT
	xs, lats := m.xs[:n], m.lats[:n]
	x, nMem := k.x, 0
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
		dice := x & (diceMax - 1)
		// Each term is 1 when dice is below the threshold, so the sum is
		// the class: 0 ALU, 1 mul/div, 2 branch, 3 load or store.
		isMem := (dice - storeT) >> 63
		class := isMem + (dice-branchT)>>63 + (dice-muldivT)>>63
		predicted := ((x>>24)&(diceMax-1) - predT) >> 63
		lats[i] = k.classLat[(class<<1|predicted)&7]
		m.memIdx[uint8(nMem)] = uint8(i)
		nMem += int(isMem)
	}
	k.x = x
	return nMem
}

// memory sends the block's loads and stores through the tag hierarchy in
// program order. The common case, an L1 hit found through the cache's
// way hint, is the inlined probe and nothing else (its latency is already
// in lats); anything else takes the full lookup, which on a miss rewrites
// the instruction's latency.
//
//simlint:hotpath runs once per simulated load or store
func (m *Model) memory(k *kernel, nMem int) {
	l1, loadT := m.l1, k.loadT
	for _, i := range m.memIdx[:nMem] {
		x := m.xs[i]
		hot := ((x>>40)&(diceMax-1) - hotFrac) >> 63
		addr := mem.Addr(k.lines[hot].mod(x>>17) * 64)
		kind := mem.Read
		if x&(diceMax-1) >= loadT {
			kind = mem.Write
		}
		if l1.Hit(kind, addr) {
			continue
		}
		m.lats[i] = m.memLat(vclock.Duration(l1.AccessOne(0, kind, addr)))
	}
}

// memLat converts a hierarchy latency into fp cycles, floored at the
// pipeline's minimum load-to-use latency. The tag arrays and the
// probabilistic backing never read the access timestamp, so accesses
// issue at time 0 and the returned completion time IS the latency; the
// handful of distinct values a hierarchy can produce (L1 hit, L2 hit,
// LLC, DRAM, ± writeback pacing) are memoized, so the float division runs
// once per distinct value instead of once per miss.
func (m *Model) memLat(d vclock.Duration) int64 {
	for j := range m.latMemo[:m.memoN] {
		if m.latMemo[j].d == d {
			return m.latMemo[j].lat
		}
	}
	lat := max(int64(float64(d)/float64(m.cfg.Clock.Period())*fp), m.cfg.L1Lat*fp)
	if m.memoN < len(m.latMemo) {
		m.latMemo[m.memoN].d, m.latMemo[m.memoN].lat = d, lat
		m.memoN++
	}
	return lat
}

// retire runs the block through the register scoreboard and the
// program-order front end. The mispredict is the only branch: every
// other choice is a max().
//
//simlint:hotpath runs once per simulated instruction
func (m *Model) retire(k *kernel, n int) {
	front, maxRetire := k.front, k.maxRetire
	issueCost, mispredStep := k.issueCost, k.mispredStep
	lats := m.lats[:n]
	for i, x := range m.xs[:n] {
		// Two source registers and a destination, pseudo-random over the
		// rename pool.
		ready := max(m.regReady[(x>>17)&63], m.regReady[(x>>23)&63])
		issue := max(front, ready)
		// Program-order front end: one issue slot consumed (issue never
		// trails front, so the slot always starts at issue).
		front = issue + issueCost
		lat := lats[i]
		if lat < 0 {
			lat &= math.MaxInt64
			m.Mispredicts++
			front = issue + mispredStep
		}
		done := issue + lat
		m.regReady[(x>>29)&63] = done
		maxRetire = max(maxRetire, done)
	}
	k.front, k.maxRetire = front, maxRetire
}

// IPC reports the cumulative modeled instructions per cycle.
func (m *Model) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// L1Misses reports the modeled L1 miss count.
func (m *Model) L1Misses() int64 { return m.l1.Misses }
