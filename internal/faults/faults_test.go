package faults

import (
	"errors"
	"fmt"
	"testing"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if got := in.Hit(SiteChanSend); got != nil {
		t.Fatalf("nil injector fired %v", got)
	}
	if NewInjector(1, 0, nil) != nil {
		t.Fatal("empty plan should build a nil injector")
	}
}

func TestScheduledHitFiresExactlyOnce(t *testing.T) {
	in := NewInjector(42, 0, []Fault{{Site: SiteDeviceDispatch, Op: OpFail, Hit: 3}})
	var fired []int64
	for i := 0; i < 6; i++ {
		if inj := in.Hit(SiteDeviceDispatch); inj != nil {
			fired = append(fired, inj.HitN)
			if inj.Op != OpFail {
				t.Fatalf("op = %v, want fail", inj.Op)
			}
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired at hits %v, want exactly [3]", fired)
	}
}

func TestDefaultHitIsFirstCrossing(t *testing.T) {
	in := NewInjector(42, 0, []Fault{{Site: SitePoolWorker, Op: OpDelay, Delay: 500}})
	inj := in.Hit(SitePoolWorker)
	if inj == nil || inj.HitN != 1 || inj.Delay != 500 {
		t.Fatalf("first crossing = %+v, want hit 1 delay 500", inj)
	}
	if in.Hit(SitePoolWorker) != nil {
		t.Fatal("hit-0 fault fired twice")
	}
}

func TestSitesAreIndependent(t *testing.T) {
	in := NewInjector(7, 0, []Fault{{Site: SiteChanSend, Op: OpFail, Hit: 1}})
	if in.Hit(SiteChanRecv) != nil {
		t.Fatal("fault fired at the wrong site")
	}
	if in.Hit(SiteChanSend) == nil {
		t.Fatal("fault did not fire at its own site")
	}
}

func TestAttemptWindowExpires(t *testing.T) {
	plan := []Fault{{Site: SitePoolWorker, Op: OpFail, Hit: 1, Attempts: 2}}
	for attempt, want := range map[int]bool{0: true, 1: true, 2: false, 5: false} {
		in := NewInjector(9, attempt, plan)
		fired := in.Hit(SitePoolWorker) != nil
		if fired != want {
			t.Fatalf("attempt %d: fired=%v, want %v", attempt, fired, want)
		}
	}
}

func TestRateIsDeterministicPerSeedAndAttempt(t *testing.T) {
	plan := []Fault{{Site: SiteChanRecv, Op: OpFail, Rate: 0.3}}
	pattern := func(seed uint64, attempt int) string {
		in := NewInjector(seed, attempt, plan)
		out := ""
		for i := 0; i < 64; i++ {
			if in.Hit(SiteChanRecv) != nil {
				out += "X"
			} else {
				out += "."
			}
		}
		return out
	}
	a, b := pattern(123, 0), pattern(123, 0)
	if a != b {
		t.Fatalf("same seed+attempt produced different patterns:\n%s\n%s", a, b)
	}
	// The draws derive from the site's name, so giving sites a type
	// must not move them.
	const want = ".....XX.X...X........X....X.X....X...XX...X.....X.X..X..X.X.X..."
	if a != want {
		t.Fatalf("pattern(123, 0) = %s, want %s", a, want)
	}
	if pattern(123, 0) == pattern(123, 1) {
		t.Fatal("different attempts should draw different rate patterns")
	}
	if pattern(123, 0) == pattern(124, 0) {
		t.Fatal("different seeds should draw different rate patterns")
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	inj := &Injected{Site: SiteChanSend, Op: OpFail, HitN: 2, Attempt: 1}
	if !errors.Is(inj, ErrInjected) {
		t.Fatal("Injected must unwrap to ErrInjected")
	}
	if got, want := inj.Error(), "faults: fail chan.send at hit 2 (attempt 1)"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	wrapped := fmt.Errorf("run failed: %w", inj)
	if !IsInjected(wrapped) {
		t.Fatal("IsInjected must see through wrapping")
	}
	if IsInjected(errors.New("ordinary")) {
		t.Fatal("ordinary errors are not injected")
	}
	if IsInjected("a panic string") {
		t.Fatal("non-error panic values are not injected")
	}
}

func TestFiredCountersAdvance(t *testing.T) {
	before := FiredTotal()
	in := NewInjector(1, 0, []Fault{{Site: SiteChanRecv, Op: OpFail, Hit: 1}})
	in.Hit(SiteChanRecv)
	if FiredTotal() != before+1 {
		t.Fatalf("FiredTotal did not advance: %d -> %d", before, FiredTotal())
	}
	sites, counts := FiredBySite()
	found := false
	for i, s := range sites {
		if s == SiteChanRecv.String() && counts[i] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("FiredBySite missing chan.recv")
	}
}

func TestParseOp(t *testing.T) {
	if op, err := ParseOp("fail"); err != nil || op != OpFail {
		t.Fatalf("ParseOp(fail) = %v, %v", op, err)
	}
	if op, err := ParseOp("delay"); err != nil || op != OpDelay {
		t.Fatalf("ParseOp(delay) = %v, %v", op, err)
	}
	if _, err := ParseOp("explode"); err == nil {
		t.Fatal("ParseOp must reject unknown ops")
	}
}

func TestKnownSite(t *testing.T) {
	sites := Sites()
	seen := map[string]bool{}
	for i, s := range sites {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("site %d: name %q is empty or repeated", s, name)
		}
		seen[name] = true
		if i > 0 && sites[i-1].String() >= name {
			t.Fatalf("Sites() not sorted by name: %v", sites)
		}
		if got, err := ParseSite(name); err != nil || got != s {
			t.Fatalf("ParseSite(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	if _, err := ParseSite("chan.teleport"); err == nil {
		t.Fatal("unknown site accepted")
	}
}
