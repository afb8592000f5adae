package vclock

import (
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Microsecond)
	if got := t1.Sub(t0); got != 5*Microsecond {
		t.Fatalf("Sub = %v, want 5us", got)
	}
	if t1 <= t0 {
		t.Fatalf("Add did not advance time")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base % (1 << 50))
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeriod(t *testing.T) {
	tests := []struct {
		f    Hz
		want Duration
	}{
		{1 * GHz, Nanosecond},
		{2 * GHz, 500 * Picosecond},
		{160 * MHz, 6250 * Picosecond},
		{3 * GHz, 333 * Picosecond},
	}
	for _, tt := range tests {
		if got := tt.f.Period(); got != tt.want {
			t.Errorf("%v.Period() = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestPeriodPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Period(0) did not panic")
		}
	}()
	Hz(0).Period()
}

func TestCyclesRoundTrip(t *testing.T) {
	f := 2 * GHz
	for _, n := range []int64{0, 1, 17, 1_000_000} {
		d := f.CyclesDur(n)
		if got := f.Cycles(d); got != n {
			t.Errorf("Cycles(CyclesDur(%d)) = %d", n, got)
		}
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Nanosecond, "1.5us"},
		{Millisecond, "1ms"},
		{2300 * Millisecond, "2.3s"},
		{-Microsecond, "-1us"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.d), got, tt.want)
		}
	}
}

func TestHzString(t *testing.T) {
	if got := (2 * GHz).String(); got != "2GHz" {
		t.Errorf("got %q", got)
	}
	if got := (160 * MHz).String(); got != "160MHz" {
		t.Errorf("got %q", got)
	}
}
