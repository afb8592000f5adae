package sweep

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 32} {
		x := New(workers)
		jobs := make([]func() int, 100)
		for i := range jobs {
			i := i
			jobs[i] = func() int { return i * i }
		}
		got := Map(x, jobs)
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestEveryJobRunsExactlyOnce(t *testing.T) {
	const n = 500
	var counts [n]int32
	jobs := make([]func() struct{}, n)
	for i := range jobs {
		i := i
		jobs[i] = func() struct{} {
			atomic.AddInt32(&counts[i], 1)
			return struct{}{}
		}
	}
	Map(New(7), jobs)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

// TestSelfSchedulingBalancesSkewedJobs gives job 0 a long run and every
// other job a short one; the short jobs finish on other workers instead
// of queueing behind the long one.
func TestSelfSchedulingBalancesSkewedJobs(t *testing.T) {
	const n = 64
	var ran int32
	jobs := make([]func() int, n)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			if i == 0 {
				// Long job: spin until every other job has run (they can
				// only do that on other workers).
				deadline := time.Now().Add(5 * time.Second)
				for atomic.LoadInt32(&ran) < n-1 {
					if time.Now().After(deadline) {
						return -1
					}
					time.Sleep(time.Millisecond)
				}
				return 0
			}
			atomic.AddInt32(&ran, 1)
			return i
		}
	}
	got := Map(New(4), jobs)
	if got[0] == -1 {
		t.Fatal("short jobs queued behind the worker stuck on the long job")
	}
	for i := 1; i < n; i++ {
		if got[i] != i {
			t.Fatalf("result[%d] = %d", i, got[i])
		}
	}
}

func TestRunZeroAndOneJob(t *testing.T) {
	Run(New(4), 0, func(int) { t.Fatal("fn called for n=0") })
	called := 0
	Run(New(4), 1, func(i int) { called++ })
	if called != 1 {
		t.Fatalf("n=1 ran %d times", called)
	}
}

func TestNilExecutorRunsSerially(t *testing.T) {
	var order []int
	Run(nil, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback out of order: %v", order)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("job panic was swallowed")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic lost its payload: %v", r)
		}
	}()
	jobs := make([]func() int, 16)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			if i == 11 {
				panic("boom")
			}
			return i
		}
	}
	Map(New(4), jobs)
}

func TestWorkersDefault(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must default to at least one worker")
	}
	if New(3).Workers() != 3 {
		t.Fatal("New(3) must keep the requested count")
	}
}
