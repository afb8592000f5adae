package jpeg

// The tests in reference_test.go run the codec on the workloads' corpus,
// and workloads imports this package, so they are external tests; these
// are the unexported functions they compare.
var (
	DecodeUncached    = decodeUncached
	RefDecodeUncached = refDecodeUncached
	RefEncodeRestart  = refEncodeRestart
	SynthImage        = synthImage
)
