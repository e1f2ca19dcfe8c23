package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value:
// a timing is reported as its median plus the highest percentile that
// still has at least this many samples beyond it.
const minBeyond = 10

// dist summarizes one timing sample set.
type dist struct {
	N      int     // sample count
	Median float64 // statistics.median
	Tail   float64 // the highest percentile with >= minBeyond samples beyond it
	TailP  float64 // that percentile, in percent (0 when N <= minBeyond)
}

// summarize computes the median and tail of xs (xs is not modified).
// With too few samples for any percentile to have minBeyond samples
// beyond it, Tail is the maximum and TailP is 0.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Median: median(s)}
	d.Tail, d.TailP = tail(s)
	return d
}

// median is statistics.median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the nearest-rank value at the highest percentile that
// leaves at least minBeyond samples above its rank, and that percentile.
// Rank r (1-based) has len-r samples beyond it, so the highest valid
// rank is len-minBeyond, at percentile 100*(len-minBeyond)/len.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := n - minBeyond
	if r < 1 {
		return sorted[n-1], 0
	}
	return sorted[r-1], 100 * float64(r) / float64(n)
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default 'exclusive' method: the three cut points of an ascending copy
// of xs. It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the quartile spread of xs as a share of its median:
// (Q3-Q1)/median, the statistic a benchmark bound is checked against.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (q[2] - q[0]) / median(s)
}
