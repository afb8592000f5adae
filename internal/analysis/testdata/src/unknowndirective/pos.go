package fixture

// hot is meant to be a tuned hot path, but its directive is misspelled:
// without the finding, hotpath-alloc would skip it without a word.
//
//simlint:hotpth fixture: flat per-event cost // WANT unknown-directive
func hot(a, b int) int { return a + b }

// engine guesses at a suppression directive the suite does not have.
type engine struct {
	scratch []int //simlint:ignore map-order // WANT unknown-directive
}

// A known name is matched whole, not as a prefix.
//
//simlint:allowed nondet-time // WANT unknown-directive
var _ = engine{}

// An allow must name checkers the suite has: a deleted or misspelled
// checker's suppression would otherwise linger without a word.
//
//simlint:allow no-such-checker fixture: never a checker // WANT unknown-directive
var _ = engine{}

// One unknown name in a list is enough.
//
//simlint:allow nondet-time,nondet-tme fixture: one typo // WANT unknown-directive
var _ = engine{}

// An allow with no checker suppresses nothing. The directive runs to
// the end of the line, so this marker sits in the string before it.
var _ = "// WANT unknown-directive" //simlint:allow
