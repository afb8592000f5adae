package fixture

// Unused has no caller.
func Unused() int { return 1 } // WANT test-only-export

// Limit is a constant no code reads.
const Limit = 3 // WANT test-only-export

// Countdown calls only itself: a reference inside its own declaration
// does not count.
func Countdown(n int) int { // WANT test-only-export
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}
