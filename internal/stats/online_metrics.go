package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrMetric indicates an accuracy that is undefined over the samples
// folded so far: none at all, none with a nonzero actual (MAPE), or a
// nonzero prediction against zero actual volume (volume accuracy).
var ErrMetric = errors.New("stats: invalid metric input")

// OnlineMAPE folds the paper's prediction-accuracy metric (1 − MAPE,
// clamped to [0, 1]; the paper reports 95.04 % for radio demand) one
// sample at a time, so no caller has to retain the (pred, actual)
// series. Zero actuals carry no percentage meaning and are skipped;
// addition order follows Add order.
type OnlineMAPE struct {
	sum float64
	n   int
}

// Add folds one (pred, actual) sample.
func (o *OnlineMAPE) Add(pred, actual float64) {
	if actual == 0 {
		return
	}
	o.sum += math.Abs(pred-actual) / math.Abs(actual)
	o.n++
}

// Accuracy returns the running 1 − MAPE. It fails with ErrMetric
// when no sample with a nonzero actual has been added.
func (o *OnlineMAPE) Accuracy() (float64, error) {
	if o.n == 0 {
		return 0, fmt.Errorf("online mape: no nonzero actuals: %w", ErrMetric)
	}
	return clamp01(1 - o.sum/float64(o.n)), nil
}

// OnlineVolume folds the volume-accuracy metric
// (1 − Σ|pred−actual| / Σ|actual|, clamped to [0, 1]) one sample at a
// time. Unlike MAPE it is well defined for series containing zeros
// and weighs errors by volume, which suits bursty demand series such
// as transcoding cycles.
type OnlineVolume struct {
	errSum, actSum float64
	n              int
}

// Add folds one (pred, actual) sample.
func (o *OnlineVolume) Add(pred, actual float64) {
	o.errSum += math.Abs(pred - actual)
	o.actSum += math.Abs(actual)
	o.n++
}

// Accuracy returns the running volume accuracy. A series with zero
// actual volume that was also predicted exactly zero — a run that
// transcodes nothing and was forecast to — is exact, 1. It fails with
// ErrMetric on an empty series, and on a nonzero prediction against
// zero actual volume, which no ratio scores.
func (o *OnlineVolume) Accuracy() (float64, error) {
	if o.n == 0 {
		return 0, fmt.Errorf("online volume accuracy over 0 samples: %w", ErrMetric)
	}
	if o.actSum == 0 {
		if o.errSum == 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("online volume accuracy: zero actual volume: %w", ErrMetric)
	}
	return clamp01(1 - o.errSum/o.actSum), nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
