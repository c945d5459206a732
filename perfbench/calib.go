package main

import (
	"sync"
	"time"
)

// The host's throughput drifts: on a shared 2-vCPU host every pass of a run
// can slow by up to 1.6x for minutes at a time, while the process's CPU
// time grows with its wall time, so the slowdown is in the host's cores and
// memory, not in scheduling. The timings of a run are therefore scaled by
// how fast the host ran two fixed reference kernels, timed just before each
// pass and each set-up, to what they would be on a host where those kernels
// take calRefS (README.md, "Host speed").

// calRefS is the reference kernels' wall time on the host the scale is
// anchored to: a 2-vCPU Xeon VM at 2.0 GHz in its fast phases.
const calRefS = 0.055

// calSink keeps the kernels' results live.
var calSink uint64

// calibrate runs the reference kernels, each on workers goroutines at
// once, and returns their wall seconds: random read-modify-writes over a
// 4 MiB table per worker, as the simulator updates its tag arrays, then a
// register-only loop.
func calibrate(workers int) float64 {
	tables := make([][]uint32, workers)
	for i := range tables {
		tables[i] = make([]uint32, 1<<20)
	}
	run := func(body func(i int) uint64) float64 {
		var wg sync.WaitGroup
		sums := make([]uint64, workers)
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sums[i] = body(i)
			}(i)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		for _, s := range sums {
			calSink += s
		}
		return el
	}
	mem := run(func(i int) uint64 {
		t := tables[i]
		x := uint32(2463534242 + i)
		var s uint64
		for k := 0; k < 3_000_000; k++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			j := x & (1<<20 - 1)
			if t[j]>>8 == x>>8 {
				s++
			} else {
				t[j] = x
			}
		}
		return s
	})
	alu := run(func(i int) uint64 {
		x := uint64(88172645463325252 + i)
		var s uint64
		for k := 0; k < 5_000_000; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				s += x >> 3
			} else {
				s ^= x
			}
		}
		return s
	})
	return mem + alu
}

// atRefSpeed scales the summed wall seconds of some timed work by the
// summed seconds of the reference kernels timed beside it.
func atRefSpeed(wallSum, calSum float64) float64 {
	return wallSum / calSum * calRefS
}
