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
