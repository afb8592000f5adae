package fixture

import "time"

// Stamp carries the allow directive.
func Stamp() time.Time {
	return time.Now() //simlint:allow nondet-time fixture: known directive
}

// Mix carries an allow naming two checkers.
func Mix() time.Time {
	//simlint:allow nondet-time,map-order fixture: known checkers
	return time.Now()
}

// add carries the hotpath directive. Documentation may quote a
// directive without issuing one:
//
//	//simlint:hotpth reason
//
//simlint:hotpath fixture: known directive
func add(a, b int) int { return a + b }
