package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quietest cuts xs, taken in time order, into consecutive blocks of size
// samples and returns the smallest p-quantile any block reads. What the
// machine's other tenants and the runtime's periodic work (a GC cycle)
// do to a timing comes and goes and only ever adds to it, so the
// quietest block is the reading that repeats (README.md, Noise). A
// sample shorter than one block is one block.
func quietest(xs []float64, size int, p float64) float64 {
	best := percentile(xs[:min(size, len(xs))], p)
	for at := size; at+size <= len(xs); at += size {
		best = min(best, percentile(xs[at:at+size], p))
	}
	return best
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is what the driver's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
