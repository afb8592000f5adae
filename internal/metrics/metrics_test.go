package metrics

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
)

// One page exercising every kind: the exact text is the format both
// /metrics endpoints (and the scripts and benchmark that scrape them)
// depend on.
func TestPageFormat(t *testing.T) {
	reg := New()
	reg.Func(func(e *Encoder) { e.Int("svc_shard", 1, "id", "s0") })
	jobs := reg.Counter("svc_jobs")
	byShard := reg.CounterVec("svc_forwards", "shard")
	wall := reg.HistogramVec("svc_wall_ms", "bench", []float64{0.5, 2})
	owned := NewCounterVec("svc_tenant", "tenant") // built elsewhere, adopted here
	reg.Register(owned)
	reg.Func(func(e *Encoder) {
		e.Int("svc_state", 1, "shard", "b:1", "state", `down "quarantined"`)
		e.Float("svc_ratio", 0.25)
	})

	jobs.Inc()
	jobs.Add(2)
	jobs.Add(-1)
	byShard.With("b:1").Add(5)
	byShard.With("a:1") // created, never counted: still renders
	wall.Observe("npb", 0.25)
	wall.Observe("npb", 1.5)
	wall.Observe("npb", 9)
	owned.With("team-a").Inc()

	const want = `svc_shard{id="s0"} 1
svc_jobs 2
svc_forwards{shard="a:1"} 0
svc_forwards{shard="b:1"} 5
svc_wall_ms_bucket{bench="npb",le="0.5"} 1
svc_wall_ms_bucket{bench="npb",le="2"} 2
svc_wall_ms_bucket{bench="npb",le="+Inf"} 3
svc_wall_ms_sum{bench="npb"} 10.75
svc_wall_ms_count{bench="npb"} 3
svc_tenant{tenant="team-a"} 1
svc_state{shard="b:1",state="down \"quarantined\""} 1
svc_ratio 0.25
`
	if got := string(reg.Bytes()); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" || string(body) != want {
		t.Fatalf("handler served %q:\n%s", ct, body)
	}
}

// Counters, label lookups, observations and scrapes from many
// goroutines at once (run under -race by check.sh).
func TestConcurrentUse(t *testing.T) {
	reg := New()
	c := reg.Counter("c")
	v := reg.CounterVec("v", "k")
	h := reg.HistogramVec("h", "k", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				v.With(string(rune('a' + i%3))).Inc()
				h.Observe("x", float64(i%3))
				if i%100 == 0 {
					reg.Bytes()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Load() != 4000 || v.With("a").Load()+v.With("b").Load()+v.With("c").Load() != 4000 {
		t.Fatalf("lost updates: c=%d", c.Load())
	}
}
