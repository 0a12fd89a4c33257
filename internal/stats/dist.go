// Package stats provides the random distributions, online summary
// statistics and error metrics used across the simulator: Zipf video
// popularity, log-normal watch durations and shadowing, histograms for
// swiping-probability distributions, and the prediction-accuracy
// metric reported by the paper.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrParam indicates an invalid distribution parameter.
var ErrParam = errors.New("stats: invalid parameter")

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF so sampling is O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n items with exponent s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf n=%d: %w", n, ErrParam)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("zipf s=%v: %w", s, ErrParam)
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against fp drift
	return &Zipf{cdf: cdf}, nil
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LogNormal is a log-normal distribution parameterized by the mean and
// standard deviation of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws one value.
func (l *LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (l *LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Categorical samples indices according to a fixed probability vector.
type Categorical struct {
	cdf []float64
}

// NewCategorical normalizes the non-negative weight vector w and
// returns a sampler over indices [0, len(w)).
func NewCategorical(w []float64) (*Categorical, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("categorical empty weights: %w", ErrParam)
	}
	var total float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("categorical weight[%d]=%v: %w", i, x, ErrParam)
		}
		total += x
	}
	if total == 0 {
		return nil, fmt.Errorf("categorical all-zero weights: %w", ErrParam)
	}
	cdf := make([]float64, len(w))
	var acc float64
	for i, x := range w {
		acc += x / total
		cdf[i] = acc
	}
	cdf[len(cdf)-1] = 1
	return &Categorical{cdf: cdf}, nil
}

// Sample draws an index.
func (c *Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability of index i.
func (c *Categorical) Prob(i int) float64 {
	if i < 0 || i >= len(c.cdf) {
		return 0
	}
	if i == 0 {
		return c.cdf[0]
	}
	return c.cdf[i] - c.cdf[i-1]
}
