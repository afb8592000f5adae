package bench

// Machine normalisation. The box this runs on drifts (frequency, noisy
// neighbours): the same binary's pass time moves by tens of percent
// between back-to-back processes. A fixed integer kernel is timed right
// before each timed pass or phase, and throughput-type samples are
// scaled by calRefMS / cal_ms, so a number means "on the reference box"
// rather than "on whatever the box was doing that second". Latency
// percentiles stay raw.

// calRefMS is the kernel's wall time on the reference box (2 cores,
// go1.24, measured when bounds.md was recorded). Frozen: changing it
// rescales every normalised metric.
const calRefMS = 15.0

// calIters is frozen with calRefMS.
const calIters = 1_700_000

// calTable is the kernel's working set (512 KB: beyond L1, inside L2,
// like the simulator's own tag arrays and event heaps).
var calTable [1 << 16]uint64

// calSink keeps the kernel's result alive.
var calSink uint64

// calKernel is the fixed work: a dependent chain of xorshift steps and
// table read-modify-writes at data-dependent indices.
func calKernel() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(calTable)) - 1)
		calTable[j] += x
		x += calTable[j] >> 3
	}
	return x
}

// calibrate times one run of the kernel and returns it in milliseconds.
func calibrate() float64 {
	t := now()
	calSink ^= calKernel()
	return since(t)
}

// calibrateSteady is the median of five kernel runs: a phase of the
// serving workload has only the sample before it and the one after it,
// so each must be steadier than the single runs that bracket every
// batch pass.
func calibrateSteady() float64 {
	var xs [5]float64
	for i := range xs {
		xs[i] = calibrate()
	}
	return median(xs[:])
}

// calClamp bounds the correction: the kernel's 512 KB table makes it
// more sensitive than the simulator to a neighbour thrashing the shared
// cache (seen once: kernel 5x slower, passes 1.5x slower), and an
// unbounded factor would then over-correct by 3x.
const calClamp = 1.5

// normalise scales a raw wall sample taken next to a calibration sample
// to the reference box.
func normalise(rawMS, calMS float64) float64 {
	if calMS <= 0 {
		return rawMS
	}
	f := calRefMS / calMS
	if f > calClamp {
		f = calClamp
	}
	if f < 1/calClamp {
		f = 1 / calClamp
	}
	return rawMS * f
}
