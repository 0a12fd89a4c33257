package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates streaming mean/variance via Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 with no observations).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the sample variance (0 with fewer than 2 observations).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// OnlineMean accumulates a streaming mean with Online's update step,
// mean += (x − mean)/n, so its Mean is bit-equal to Online's over the
// same observations; it skips the variance term. The zero value is
// ready to use.
type OnlineMean struct {
	n    int
	mean float64
}

// Add incorporates one observation.
func (o *OnlineMean) Add(x float64) {
	o.n++
	o.mean += (x - o.mean) / float64(o.n)
}

// N returns the number of observations.
func (o *OnlineMean) N() int { return o.n }

// Mean returns the running mean (0 with no observations).
func (o *OnlineMean) Mean() float64 { return o.mean }

// Histogram counts observations into fixed-width bins over [Lo, Hi).
// Out-of-range observations clamp into the first/last bin so mass is
// never silently dropped.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || lo >= hi {
		return nil, fmt.Errorf("histogram [%v,%v) bins=%d: %w", lo, hi, bins, ErrParam)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n observations of the same value.
func (h *Histogram) AddN(x float64, n int) {
	bins := len(h.Counts)
	i := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i] += n
	h.total += n
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// PMF returns the normalized probability mass per bin (nil total→zeros).
func (h *Histogram) PMF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// CDF returns the cumulative distribution per bin edge (rightmost=1
// when any mass is present).
func (h *Histogram) CDF() []float64 {
	pmf := h.PMF()
	out := make([]float64, len(pmf))
	var acc float64
	for i, p := range pmf {
		acc += p
		out[i] = acc
	}
	return out
}

// TailMean returns the mean of the values at or below the q-quantile
// (the lower conditional tail expectation) — a smoother robust
// statistic than a point quantile. Returns NaN for empty input or
// invalid q. xs is not modified.
func TailMean(xs []float64, q float64) float64 {
	return TailMeanInPlace(append([]float64(nil), xs...), q)
}

// TailMeanInPlace is TailMean over values the caller lets it reorder:
// xs is sorted in place, so a caller staging scratch values allocates
// nothing.
func TailMeanInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 || q <= 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := int(math.Ceil(q * float64(len(xs))))
	if n < 1 {
		n = 1
	}
	var sum float64
	for _, v := range xs[:n] {
		sum += v
	}
	return sum / float64(n)
}
