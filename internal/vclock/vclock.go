// Package vclock provides the virtual-time primitives shared by every
// simulator in this repository.
//
// All simulated time is kept in picoseconds in a signed 64-bit integer,
// which covers about 106 days of simulated time — far beyond any
// full-stack simulation we run — while still resolving a single cycle of
// a 2 GHz accelerator (500 ps) or a 3 GHz CPU (~333 ps) exactly.
package vclock

import "fmt"

// Time is a point on the virtual timeline, in picoseconds since the start
// of the simulation. The zero value is the simulation start.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel time far beyond any reachable simulation point.
const Never Time = 1<<63 - 1

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports d as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds reports d as a float64 count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

func (t Time) String() string { return Duration(t).String() }

func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return trimUnit(float64(d)/float64(Nanosecond), "ns")
	case d < Millisecond:
		return trimUnit(float64(d)/float64(Microsecond), "us")
	case d < Second:
		return trimUnit(float64(d)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(d)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Hz is a clock frequency in cycles per second.
type Hz int64

// Common frequencies used across the evaluation.
const (
	MHz Hz = 1_000_000
	GHz Hz = 1_000_000_000
)

// Period returns the duration of one cycle at frequency f. It panics if f
// is not positive.
func (f Hz) Period() Duration {
	if f <= 0 {
		panic("vclock: non-positive frequency")
	}
	return Duration(int64(Second) / int64(f))
}

// Cycles converts a duration to a whole number of cycles at frequency f,
// rounding down.
func (f Hz) Cycles(d Duration) int64 {
	return int64(d) / int64(f.Period())
}

// CyclesDur returns the duration of n cycles at frequency f.
func (f Hz) CyclesDur(n int64) Duration {
	return Duration(n) * f.Period()
}

func (f Hz) String() string {
	switch {
	case f >= GHz && f%GHz == 0:
		return fmt.Sprintf("%dGHz", f/GHz)
	case f >= MHz && f%MHz == 0:
		return fmt.Sprintf("%dMHz", f/MHz)
	default:
		return fmt.Sprintf("%dHz", int64(f))
	}
}
