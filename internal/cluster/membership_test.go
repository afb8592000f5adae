package cluster

import "testing"

func newTestMembership(shards ...string) *Membership {
	return NewMembership(MembershipConfig{
		Shards:        shards,
		FailThreshold: 3,
		ReadmitOKs:    2,
		Probe:         func(string) bool { return true }, // never dialed; reports drive the tests
	})
}

func TestMembershipMarkDownAfterConsecutiveFailures(t *testing.T) {
	m := newTestMembership("a", "b")
	for i := 0; i < 2; i++ {
		m.ReportFailure("a")
		if !m.Live("a") {
			t.Fatalf("shard down after %d failures, threshold is 3", i+1)
		}
	}
	// A success resets the streak.
	m.ReportSuccess("a")
	m.ReportFailure("a")
	m.ReportFailure("a")
	if !m.Live("a") {
		t.Fatal("failure streak survived an intervening success")
	}
	m.ReportFailure("a")
	if m.Live("a") {
		t.Fatal("shard still live after 3 consecutive failures")
	}
	marksDown := m.marksDown.Load()
	if marksDown != 1 {
		t.Fatalf("marksDown = %d, want 1", marksDown)
	}
	if m.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d, want 1", m.LiveCount())
	}
}

func TestMembershipReadmitThroughProbation(t *testing.T) {
	m := newTestMembership("a")
	for i := 0; i < 3; i++ {
		m.ReportFailure("a")
	}
	if m.State("a") != StateDown {
		t.Fatalf("state = %s, want down", m.State("a"))
	}

	// One good probe: probation, not yet serving.
	m.ReportSuccess("a")
	if m.State("a") != StateProbation || m.Live("a") {
		t.Fatalf("state = %s live=%v, want probation and not live", m.State("a"), m.Live("a"))
	}
	// A failure in probation breaks the streak back to down.
	m.ReportFailure("a")
	if m.State("a") != StateDown {
		t.Fatalf("state = %s, want down after broken probation", m.State("a"))
	}

	// Two consecutive successes re-admit.
	m.ReportSuccess("a")
	m.ReportSuccess("a")
	if !m.Live("a") {
		t.Fatalf("state = %s, want up after %d good probes", m.State("a"), 2)
	}
	readmits := m.readmits.Load()
	if readmits != 1 {
		t.Fatalf("readmits = %d, want 1", readmits)
	}
}

func TestQuarantineBypassesFailureThreshold(t *testing.T) {
	m := newTestMembership("a", "b")
	m.Quarantine("a")
	if m.Live("a") {
		t.Fatal("quarantined shard still live")
	}
	if s := m.State("a"); s != "down (quarantined)" {
		t.Fatalf("State = %q, want quarantined down", s)
	}
	marksDown, quarantines := m.marksDown.Load(), m.quarantines.Load()
	if marksDown != 1 || quarantines != 1 {
		t.Fatalf("marksDown=%d quarantines=%d, want 1 and 1", marksDown, quarantines)
	}
	// Recovery runs the normal probation path and clears the flag.
	m.ReportSuccess("a")
	m.ReportSuccess("a")
	if !m.Live("a") || m.State("a") != StateUp {
		t.Fatalf("quarantined shard did not re-admit: state %s", m.State("a"))
	}
}

func TestProbeAllDrivesStateMachine(t *testing.T) {
	healthy := map[string]bool{"a": true, "b": true}
	m := NewMembership(MembershipConfig{
		Shards:        []string{"a", "b"},
		FailThreshold: 2,
		ReadmitOKs:    2,
		Probe:         func(s string) bool { return healthy[s] },
	})
	healthy["b"] = false
	m.ProbeAll()
	m.ProbeAll()
	if m.Live("b") || !m.Live("a") {
		t.Fatalf("after failed probes: a live=%v b live=%v, want true/false", m.Live("a"), m.Live("b"))
	}
	healthy["b"] = true
	m.ProbeAll()
	m.ProbeAll()
	if !m.Live("b") {
		t.Fatalf("b not re-admitted after recovery: state %s", m.State("b"))
	}
}
