package hostkit_test

import (
	"fmt"
	"slices"
	"testing"

	"nexsim/internal/app"
	"nexsim/internal/coro"
	"nexsim/internal/hostkit"
	"nexsim/internal/isa"
)

// handoff is one request a thread handed its engine, with the thread's
// warps as the engine reads them at that point.
type handoff struct {
	op       coro.Op
	compress string
	jumpT    int
	slip     int
}

// drive runs body on a shell's thread with no scheduler around it,
// resuming it until it exits, and records every request it yields.
func drive(body app.ThreadFunc) []handoff {
	var k hostkit.Shell
	var w *hostkit.ThreadState
	k.Init(nil, nil, hostkit.EnvConfig{New: func(*coro.Thread) (any, *hostkit.ThreadState) {
		w = new(hostkit.ThreadState)
		return w, w
	}}, hostkit.Budget{}, nil)
	th := k.Spawn("t", body)
	var out []handoff
	for {
		r := th.Resume()
		out = append(out, handoff{r.Op, fmt.Sprint(w.Compress), w.JumpT, w.Slip})
		if r.Op == coro.OpExit {
			return out
		}
	}
}

// TestWarpsWriteTheThreadsWarp: a warp region hands the engine only its
// body's requests (plus one OpSlipExit on leaving slip mode), and the
// thread's ThreadState shows the region while the body runs and is
// clear after it.
func TestWarpsWriteTheThreadsWarp(t *testing.T) {
	compute := func(e app.Env) func() { return func() { e.Compute(isa.Work{}) } }
	exit := handoff{op: coro.OpExit, compress: "[]"}
	cases := []struct {
		name string
		body app.ThreadFunc
		want []handoff
	}{
		{"CompressT", func(e app.Env) { e.CompressT(2, compute(e)) },
			[]handoff{{op: coro.OpAdvance, compress: "[2]"}, exit}},
		{"nested CompressT", func(e app.Env) { e.CompressT(2, func() { e.CompressT(4, compute(e)) }) },
			[]handoff{{op: coro.OpAdvance, compress: "[2 4]"}, exit}},
		{"JumpT", func(e app.Env) { e.JumpT(compute(e)) },
			[]handoff{{op: coro.OpAdvance, compress: "[]", jumpT: 1}, exit}},
		{"SlipStream", func(e app.Env) { e.SlipStream(compute(e)) },
			[]handoff{{op: coro.OpAdvance, compress: "[]", slip: 1}, {op: coro.OpSlipExit, compress: "[]"}, exit}},
		// Regions stack: the inner exit leaves the thread in slip mode,
		// and only the outer exit, which ends it, reaches the engine.
		{"nested SlipStream", func(e app.Env) { e.SlipStream(func() { e.SlipStream(compute(e)) }) },
			[]handoff{{op: coro.OpAdvance, compress: "[]", slip: 2}, {op: coro.OpSlipExit, compress: "[]"}, exit}},
		{"compute after a nested SlipStream", func(e app.Env) {
			e.SlipStream(func() { e.SlipStream(compute(e)); compute(e)() })
		}, []handoff{{op: coro.OpAdvance, compress: "[]", slip: 2}, {op: coro.OpAdvance, compress: "[]", slip: 1},
			{op: coro.OpSlipExit, compress: "[]"}, exit}},
	}
	for _, c := range cases {
		if got := drive(c.body); !slices.Equal(got, c.want) {
			t.Errorf("%s: handed %+v, want %+v", c.name, got, c.want)
		}
	}
}
