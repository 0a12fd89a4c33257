package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median of xs (mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(asc []float64, p int) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// hiLadder is the percentile ladder of interval_ms_hi; p50 is the floor
// reported when even p75 leaves fewer than minBeyond samples above it.
var hiLadder = []int{50, 75, 90, 95, 99}

const minBeyond = 10

// hiPercentile returns the highest percentile of the ladder that still
// has at least minBeyond samples beyond it, and its value.
func hiPercentile(xs []float64) (p int, v float64) {
	asc := sorted(xs)
	p = hiLadder[0]
	for _, q := range hiLadder[1:] {
		if float64(len(asc))*float64(100-q)/100 >= minBeyond {
			p = q
		}
	}
	if p == hiLadder[0] {
		return p, median(asc) // the same value interval_ms_p50 reports
	}
	return p, percentile(asc, p)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is how the acceptance spread is computed.
// Fewer than two values yield that value three times.
func quartiles(xs []float64) (q [3]float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// windowRatio is median(last w) ÷ median(xs[2:2+w]) with w = min(16,
// (len-2)/2): how much a per-step cost grew from the start of the
// steady state to its end. 0 when the series is too short.
func windowRatio(xs []float64) float64 {
	w := (len(xs) - 2) / 2
	if w > 16 {
		w = 16
	}
	if w < 1 {
		return 0
	}
	first := median(xs[2 : 2+w])
	if first == 0 {
		return 0
	}
	return median(xs[len(xs)-w:]) / first
}
