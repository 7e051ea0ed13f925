package main

import "time"

// Host-speed calibration. The host is a shared virtual machine whose
// speed drifts by a fifth or more over minutes, far more than any change
// the gates should catch, and a whole run can fall in a slow stretch. So
// after every round each run times calibrate, a fixed memory-bound loop
// that belongs to the benchmark and never changes with the program, and
// reports every timing at the reference speed calibRef: a time is divided
// by hostScale, a rate multiplied by it. Measured raw values are printed
// beside the result.
const calibRef = 2500 * time.Microsecond // about the loop's time on a 2-vCPU Xeon VM; it fixes the scale only

// calibTable is 32 MiB, past any cache, so the loop sees the memory
// system the daemon and the simulator see.
var calibTable = make([]uint64, 1<<22)

// calibrate times 200,000 read-modify-writes of calibTable at addresses
// drawn from a linear congruential generator.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calibTable[x>>42] += x
	}
	return time.Since(t0)
}

// hostScale is how much slower than the reference the host ran: the
// median calibration time over calibRef.
func hostScale(calib []float64) float64 {
	return median(calib) / float64(calibRef)
}
