package cpu

import (
	"nexsim/internal/isa"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// refDuration is the per-instruction loop Duration ran before the
// block-pipelined kernel replaced it, kept verbatim (but for the saturated
// dice thresholds, which define the mix semantics for both) as the
// reference the differential and fuzz tests compare the kernel against;
// TestDiceThresholds pins the thresholds themselves. It drives the
// same Model state (tag arrays, backing dice, scoreboard, stats), so a
// sequence of calls on one Model must match the kernel call for call.
func refDuration(m *Model, w isa.Work) vclock.Duration {
	if w.Instr <= 0 {
		return 0
	}
	cfg := m.cfg

	loadT := diceThreshold(w.Mix.Load)
	storeT := min(loadT+diceThreshold(w.Mix.Store), diceMax)
	branchT := min(storeT+diceThreshold(w.Mix.Branch), diceMax)
	muldivT := min(branchT+diceThreshold(w.Mix.MulDiv), diceMax)
	predT := diceThreshold(cfg.PredictAccuracy)

	ws := w.WorkingSet
	if ws < 64 {
		ws = 64
	}
	wsLines := uint64(ws / 64)
	if wsLines == 0 {
		wsLines = 1
	}
	// Locality: most accesses hit a hot subset that fits in L1.
	hotLines := wsLines / 16
	if hotLines > 256 {
		hotLines = 256
	}
	if hotLines == 0 {
		hotLines = 1
	}

	// LLC residency behind the L2 tag model.
	llcHit := 0.98
	if ws > cfg.LLCBytes {
		llcHit = 0.98 * float64(cfg.LLCBytes) / float64(ws)
	}
	m.back.llcHitP = uint64(llcHit * diceMax)

	issueCost := int64(fp / cfg.IssueWidth)
	aluLat := cfg.ALULat * fp
	mulLat := cfg.MulDivLat * fp
	minMemLat := cfg.L1Lat * fp
	mispredFP := cfg.MispredictPenalty * fp
	period := float64(cfg.Clock.Period())

	var latMemo [8]struct {
		d   vclock.Duration
		lat int64
	}
	memoN := 0

	m.regReady = [64]int64{}
	front := int64(0)
	maxRetire := int64(0)
	x := w.Seed | 1

	for i := int64(0); i < w.Instr; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dice := x & (diceMax - 1)

		// Two source registers and a destination, pseudo-random over the
		// rename pool.
		srcA := (x >> 17) & 63
		srcB := (x >> 23) & 63
		dst := (x >> 29) & 63

		issue := front
		if r := m.regReady[srcA]; r > issue {
			issue = r
		}
		if r := m.regReady[srcB]; r > issue {
			issue = r
		}

		var done int64
		switch {
		case dice < storeT: // load or store
			var line uint64
			if (x>>40)&(diceMax-1) < hotFrac {
				line = (x >> 17) % hotLines
			} else {
				line = (x >> 17) % wsLines
			}
			kind := mem.Read
			if dice >= loadT {
				kind = mem.Write
			}
			d := vclock.Duration(m.l1.AccessOne(0, kind, mem.Addr(line*64)))
			lat := int64(-1)
			for j := 0; j < memoN; j++ {
				if latMemo[j].d == d {
					lat = latMemo[j].lat
					break
				}
			}
			if lat < 0 {
				lat = int64(float64(d) / period * fp)
				if memoN < len(latMemo) {
					latMemo[memoN].d, latMemo[memoN].lat = d, lat
					memoN++
				}
			}
			if lat < minMemLat {
				lat = minMemLat
			}
			done = issue + lat
		case dice < branchT:
			done = issue + aluLat
			if (x>>24)&(diceMax-1) >= predT {
				m.Mispredicts++
				front = issue + mispredFP
			}
		case dice < muldivT:
			done = issue + mulLat
		default:
			done = issue + aluLat
		}

		m.regReady[dst] = done
		if done > maxRetire {
			maxRetire = done
		}
		// Program-order front end: one issue slot consumed.
		if issue+issueCost > front {
			front = issue + issueCost
		} else {
			front += issueCost
		}
	}

	total := maxRetire
	if front > total {
		total = front
	}
	cycles := total / fp
	m.Instructions += w.Instr
	m.Cycles += cycles
	return cfg.Clock.CyclesDur(cycles)
}
