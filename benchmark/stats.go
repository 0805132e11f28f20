package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles Tail may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN when xs is empty.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Supports reports whether n samples support percentile p: at least
// minBeyond samples must lie beyond it.
func Supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// Tail returns the highest percentile of the ladder that xs supports and
// its value. ok is false when even the median lacks minBeyond samples
// beyond it.
func Tail(xs []float64) (p, v float64, ok bool) {
	for _, q := range tailLadder {
		if Supports(len(xs), q) {
			return q, Percentile(xs, q), true
		}
	}
	return 0, math.NaN(), false
}

// Quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's acceptance check applies. It needs two or more values.
func Quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), false
	}
	s := Sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}
