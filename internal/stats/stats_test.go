package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewZipf(5, -1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewZipf(5, math.NaN()); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("zipf pmf sums to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(100) != 0 {
		t.Fatal("out-of-range prob must be 0")
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z, err := NewZipf(20, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("zipf pmf not decreasing at %d", i)
		}
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	z, err := NewZipf(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 10)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	for i := 0; i < 10; i++ {
		emp := float64(counts[i]) / n
		if math.Abs(emp-z.Prob(i)) > 0.01 {
			t.Fatalf("rank %d empirical %v vs theoretical %v", i, emp, z.Prob(i))
		}
	}
}

func TestLogNormal(t *testing.T) {
	l := LogNormal{Mu: 1, Sigma: 0.5}
	rng := rand.New(rand.NewSource(7))
	var o Online
	for i := 0; i < 100000; i++ {
		x := l.Sample(rng)
		if x <= 0 {
			t.Fatal("lognormal must be positive")
		}
		o.Add(x)
	}
	if math.Abs(o.Mean()-l.Mean())/l.Mean() > 0.05 {
		t.Fatalf("empirical mean %v vs theoretical %v", o.Mean(), l.Mean())
	}
}

func TestCategorical(t *testing.T) {
	if _, err := NewCategorical(nil); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCategorical([]float64{0, 0}); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCategorical([]float64{1, -1}); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	c, err := NewCategorical([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Prob(0)-0.25) > 1e-12 || math.Abs(c.Prob(1)-0.75) > 1e-12 {
		t.Fatalf("probs %v %v", c.Prob(0), c.Prob(1))
	}
	rng := rand.New(rand.NewSource(5))
	counts := [2]int{}
	for i := 0; i < 100000; i++ {
		counts[c.Sample(rng)]++
	}
	if math.Abs(float64(counts[1])/100000-0.75) > 0.01 {
		t.Fatalf("empirical %v", counts)
	}
}

func TestOnlineMoments(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.N() != 0 {
		t.Fatal("zero value must be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N=%d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v", o.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("var %v", o.Var())
	}
	if math.Abs(o.Std()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("std %v", o.Std())
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var o Online
		var sum float64
		for _, x := range xs {
			o.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		batchVar := ss / float64(len(xs)-1)
		tol := 1e-6 * (1 + math.Abs(batchVar))
		return math.Abs(o.Mean()-mean) < tol && math.Abs(o.Var()-batchVar) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineMeanBitEqualsOnline holds the mean-only accumulator to
// Online's mean bit for bit after every observation, over inputs of
// mixed sign and magnitude: the engines swapped one for the other
// under pinned trace digests.
func TestOnlineMeanBitEqualsOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var o Online
		var m OnlineMean
		if m.N() != 0 || m.Mean() != 0 {
			t.Fatal("zero value must be empty")
		}
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		for i := 0; i < 1+rng.Intn(64); i++ {
			x := (rng.NormFloat64() + float64(rng.Intn(3)-1)*40) * scale
			o.Add(x)
			m.Add(x)
			if m.N() != o.N() || math.Float64bits(m.Mean()) != math.Float64bits(o.Mean()) {
				t.Fatalf("trial %d after %d: mean %v (n %d), Online %v (n %d)", trial, i+1, m.Mean(), m.N(), o.Mean(), o.N())
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	if _, err := NewHistogram(0, 0, 4); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewHistogram(0, 1, 0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 5, 9.9, 42} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	// -1 clamps into bin 0; 42 clamps into bin 4.
	if h.Counts[0] != 3 || h.Counts[2] != 1 || h.Counts[4] != 2 {
		t.Fatalf("counts %v", h.Counts)
	}
	pmf := h.PMF()
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v", sum)
	}
	cdf := h.CDF()
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Fatalf("cdf tail %v", cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("cdf must be non-decreasing")
		}
	}
}

// TestHistogramAddN: AddN(x, n) is n calls of Add(x) — same bins
// (out-of-range values clamp the same way), same total, same CDF bits.
func TestHistogramAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := []float64{-3, 0, 0.05, 0.5, 1 - 1e-16, 1, 1.0000001, 7}
	for i := 0; i < 40; i++ {
		xs = append(xs, rng.Float64()*1.4-0.2)
	}
	one, err := NewHistogram(0, 1.0000001, 20)
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewHistogram(0, 1.0000001, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		n := rng.Intn(2000)
		many.AddN(x, n)
		for j := 0; j < n; j++ {
			one.Add(x)
		}
	}
	if one.Total() != many.Total() {
		t.Fatalf("total %d, want %d", many.Total(), one.Total())
	}
	for i := range one.Counts {
		if one.Counts[i] != many.Counts[i] {
			t.Fatalf("bin %d: %d, want %d", i, many.Counts[i], one.Counts[i])
		}
	}
	c1, c2 := one.CDF(), many.CDF()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("cdf[%d] %v, want %v", i, c2[i], c1[i])
		}
	}
}

func TestHistogramEmptyPMF(t *testing.T) {
	h, err := NewHistogram(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.PMF() {
		if p != 0 {
			t.Fatal("empty histogram PMF must be all zero")
		}
	}
}

// mape folds (pred, actual) pairs through OnlineMAPE and returns the
// fold's unclamped MAPE and its clamped accuracy.
func mape(pred, actual []float64) (m, acc float64, err error) {
	var o OnlineMAPE
	for i := range pred {
		o.Add(pred[i], actual[i])
	}
	if o.n > 0 {
		m = o.sum / float64(o.n)
	}
	acc, err = o.Accuracy()
	return m, acc, err
}

func TestMetricsErrors(t *testing.T) {
	if _, _, err := mape(nil, nil); !errors.Is(err, ErrMetric) {
		t.Fatalf("empty: want ErrMetric, got %v", err)
	}
	if _, _, err := mape([]float64{1, 2}, []float64{0, 0}); !errors.Is(err, ErrMetric) {
		t.Fatalf("all-zero actuals must fail, got %v", err)
	}
}

func TestMetricsValues(t *testing.T) {
	m, acc, err := mape([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("mape %v", m)
	}
	if math.Abs(acc-0.9) > 1e-12 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestPredictionAccuracyClamps(t *testing.T) {
	// Wildly wrong prediction: accuracy floors at 0 rather than going
	// negative.
	_, acc, err := mape([]float64{1000}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 {
		t.Fatalf("accuracy %v, want 0", acc)
	}
	_, acc, err = mape([]float64{1, 2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("accuracy %v, want 1", acc)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	m, _, err := mape([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("mape %v, want 0.1 (zero-actual skipped)", m)
	}
}

func TestOnlineVolume(t *testing.T) {
	volume := func(pred, actual []float64) (float64, error) {
		var o OnlineVolume
		for i := range pred {
			o.Add(pred[i], actual[i])
		}
		return o.Accuracy()
	}
	// Σ|err| = 10 + 0 + 5 = 15 over Σactual = 100 + 0 + 50 = 150: the
	// zero-actual sample still counts, unlike MAPE.
	acc, err := volume([]float64{110, 0, 45}, []float64{100, 0, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.9) > 1e-12 {
		t.Fatalf("volume accuracy %v, want 0.9", acc)
	}
	if acc, err = volume([]float64{1000}, []float64{1}); err != nil || acc != 0 {
		t.Fatalf("volume accuracy %v (%v), want clamp to 0", acc, err)
	}
	if _, err := volume(nil, nil); !errors.Is(err, ErrMetric) {
		t.Fatalf("empty: want ErrMetric, got %v", err)
	}
	if _, err := volume([]float64{1, 2}, []float64{0, 0}); !errors.Is(err, ErrMetric) {
		t.Fatalf("zero actual volume: want ErrMetric, got %v", err)
	}
}

// TestOnlineVolumeZeroVolume: zero actual volume predicted exactly
// zero is a perfect forecast, however many samples; any nonzero
// prediction against it stays undefined.
func TestOnlineVolumeZeroVolume(t *testing.T) {
	var o OnlineVolume
	for range 3 {
		o.Add(0, 0)
	}
	if acc, err := o.Accuracy(); err != nil || acc != 1 {
		t.Fatalf("all-zero series: accuracy %v (%v), want exactly 1", acc, err)
	}
	o.Add(1e-9, 0)
	if _, err := o.Accuracy(); !errors.Is(err, ErrMetric) {
		t.Fatalf("nonzero prediction of zero volume: want ErrMetric, got %v", err)
	}
}

func TestTailMean(t *testing.T) {
	if !math.IsNaN(TailMean(nil, 0.2)) {
		t.Fatal("empty tail mean must be NaN")
	}
	if !math.IsNaN(TailMean([]float64{1}, 0)) || !math.IsNaN(TailMean([]float64{1}, 1.5)) {
		t.Fatal("invalid q must be NaN")
	}
	xs := []float64{5, 1, 4, 2, 3}
	// Bottom 40% of 5 values = 2 values {1, 2}.
	if got := TailMean(xs, 0.4); got != 1.5 {
		t.Fatalf("tail mean %v, want 1.5", got)
	}
	// q=1 is the plain mean.
	if got := TailMean(xs, 1); got != 3 {
		t.Fatalf("full tail mean %v, want 3", got)
	}
	// Tiny q still averages at least one value (the minimum).
	if got := TailMean(xs, 0.01); got != 1 {
		t.Fatalf("min tail %v, want 1", got)
	}
	// Input not mutated.
	if xs[0] != 5 {
		t.Fatal("TailMean must not reorder input")
	}
}

// TailMean is monotone in q and bounded by min and mean.
func TestTailMeanProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0.1, 0.3, 0.6, 1.0} {
			tm := TailMean(xs, q)
			if tm < prev-1e-9 {
				return false
			}
			prev = tm
		}
		mn, mean := xs[0], 0.0
		for _, x := range xs {
			if x < mn {
				mn = x
			}
			mean += x
		}
		mean /= float64(len(xs))
		full := TailMean(xs, 1)
		return TailMean(xs, 0.01) >= mn-1e-9 && math.Abs(full-mean) < 1e-6*(1+math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
