package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// sizes fixes how much work each workload does. sizesFor derives it
// from the target run length; the self-test shrinks it.
type sizes struct {
	// cross4Sim is the simulated length of each cross4-paper engine run;
	// cross4Pairs is how many IM_V1+benign pairs, each on its own seed,
	// make up the batch.
	cross4Sim   time.Duration
	cross4Pairs int
	// serveJobs is the number of jobs each serve client submits per
	// pass; serveSim is each job's simulated length.
	serveJobs int
	serveSim  time.Duration
	// sweep shrinks the Fig. 4-8 sweep. Fig. 8 runs at its own
	// densities: its 90 s rounds replay one seed's traffic per density
	// on all five layouts, so at 120 veh/min the figure's cost swung by
	// a factor of two between seeds and set the whole sweep's.
	sweepRounds        int
	sweepDuration      time.Duration
	sweepDensities     []float64
	sweepFig8Densities []float64
	sweepSettings      []string
}

// sizesFor scales the fixed work of each workload to roughly the target
// number of wall seconds on a 2-core machine.
func sizesFor(seconds int) sizes {
	per := func(unit float64) int { return max(1, int(float64(seconds)/unit+0.5)) }
	return sizes{
		cross4Sim:          120 * time.Second,
		cross4Pairs:        per(3.5),
		serveJobs:          per(4.7),
		serveSim:           40 * time.Second,
		sweepRounds:        1,
		sweepDuration:      40 * time.Second,
		sweepDensities:     []float64{20, 120},
		sweepFig8Densities: []float64{20, 80},
		sweepSettings:      []string{"V1", "V5", "V10", "IM", "IM_V1", "IM_V5", "IM_V10"},
	}
}

// number is a sample element: a duration, a count or a size.
type number interface{ ~int64 | ~float64 }

// median of a sample (0 for an empty one); the median of an even-sized
// sample is the mean of the middle two.
func median[T number](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// percentile is the nearest-rank p-th percentile of a sample, p in
// percent (0 for an empty sample).
func percentile[T number](xs []T, p int) T {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := (p*len(s)+99)/100 - 1
	return s[min(max(k, 0), len(s)-1)]
}

func sorted[T number](xs []T) []T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

const liveHeap = "/gc/heap/live:bytes"

// liveHeapMB is the live heap the last GC cycle marked, in MB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heldHeapMB forces two GC cycles and returns the live heap in MB; the
// caller keeps alive what it measures. The second cycle empties the
// sync.Pool victim caches, so no encoder buffer of earlier work counts.
func heldHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return liveHeapMB()
}
