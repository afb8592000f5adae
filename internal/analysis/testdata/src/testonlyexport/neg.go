package fixture

// Used has a caller in this package.
func Used() int { return Base }

// Base is read by Used.
var Base = 2

// Oracle is what tests compare against, and says so.
//
//simlint:allow test-only-export the reference the tests compare against
func Oracle() int { return 4 }

// caller is unexported: out of scope.
func caller() int { return Used() }

// Kind is a type and String a method: both out of scope.
type Kind int

func (Kind) String() string { return "kind" }
