package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// adamTestCoeffs are the optimizer settings the models train with —
// the CNN compressor's √8-scaled rate and the DDQN's 1e-3, both at the
// default β₁, β₂ and ε — at the first step, at a later one, and at one
// late enough that bc1 has rounded to exactly 1, which takes the
// kernel's entry point without the divide by it.
func adamTestCoeffs() []AdamCoeffs {
	var out []AdamCoeffs
	for _, lr := range []float64{1e-3 * math.Sqrt(8), 1e-3} {
		for _, step := range []float64{1, 37, 400} {
			out = append(out, AdamCoeffs{
				B1: 0.9, C1: 1 - 0.9, B2: 0.999, C2: 1 - 0.999,
				LR: lr, Eps: 1e-8,
				BC1: 1 - math.Pow(0.9, step), BC2: 1 - math.Pow(0.999, step),
			})
		}
	}
	return out
}

// adamTestGrads mixes normal gradients with signed zeros, denormals
// and ±1e150, whose square is near the top of the float64 range.
var adamTestGrads = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, 1e150, -1e150}

func fillAdam(rng *rand.Rand, w, g, m, v Vec) {
	for i := range w {
		w[i] = rng.NormFloat64()
		if rng.Intn(3) == 0 {
			g[i] = adamTestGrads[rng.Intn(len(adamTestGrads))]
		} else {
			g[i] = rng.NormFloat64() * 0.1
		}
		m[i] = rng.NormFloat64() * 0.01
		v[i] = math.Abs(rng.NormFloat64()) * 1e-4
	}
}

// TestAdamKernelEquivalence is the Adam half of the SIMD contract: the
// dispatched update equals the scalar loop bit for bit in w, m and v,
// for every length from 0 to 1000.
func TestAdamKernelEquivalence(t *testing.T) {
	if !useAVX2() {
		t.Skip("no AVX2 dispatch: AdamUnchecked already runs the generic loop")
	}
	rng := rand.New(rand.NewSource(76))
	for ci, c := range adamTestCoeffs() {
		for n := 0; n <= 1000; n++ {
			w, g, m, v := make(Vec, n), make(Vec, n), make(Vec, n), make(Vec, n)
			fillAdam(rng, w, g, m, v)
			w2, m2, v2 := Clone(w), Clone(m), Clone(v)
			adamGeneric(&c, w, g, m, v)
			AdamUnchecked(&c, w2, g, m2, v2)
			for i := 0; i < n; i++ {
				for _, pair := range [][2]float64{{w[i], w2[i]}, {m[i], m2[i]}, {v[i], v2[i]}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("coeffs#%d n=%d i=%d g=%v: generic %x simd %x",
							ci, n, i, g[i], math.Float64bits(pair[0]), math.Float64bits(pair[1]))
					}
				}
			}
		}
	}
}

// TestAdamBC1OneMatchesGeneric pins the entry point without the divide
// by bc1: at a step where bc1 is exactly 1 the dispatched update equals
// adamGeneric, which still divides by it, bit for bit in w, m and v —
// the late-step coefficients of TestAdamKernelEquivalence, checked here
// to really be 1 and taken over every special gradient and a moment of
// each sign, zero and subnormal.
func TestAdamBC1OneMatchesGeneric(t *testing.T) {
	if !useAVX2() {
		t.Skip("no AVX2 dispatch: AdamUnchecked already runs the generic loop")
	}
	c := adamTestCoeffs()[2]
	if c.BC1 != 1 {
		t.Fatalf("bc1 at step 400 = %v, want exactly 1", c.BC1)
	}
	moments := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-3, -1e-3, 1e150}
	var w, g, m, v Vec
	for _, gj := range append(adamTestGrads, 0.25, -0.25) {
		for _, mj := range moments {
			w = append(w, 0.5)
			g = append(g, gj)
			m = append(m, mj)
			v = append(v, 1e-4)
		}
	}
	w2, m2, v2 := Clone(w), Clone(m), Clone(v)
	adamGeneric(&c, w, g, m, v)
	AdamUnchecked(&c, w2, g, m2, v2)
	for i := range w {
		for _, pair := range [][2]float64{{w[i], w2[i]}, {m[i], m2[i]}, {v[i], v2[i]}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("i=%d g=%v: generic %x simd %x", i, g[i], math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

// TestAdamDispatchAllocFree: the dispatched update never allocates.
func TestAdamDispatchAllocFree(t *testing.T) {
	c := adamTestCoeffs()[0]
	w, g, m, v := make(Vec, 257), make(Vec, 257), make(Vec, 257), make(Vec, 257)
	fillAdam(rand.New(rand.NewSource(77)), w, g, m, v)
	if n := testing.AllocsPerRun(100, func() { AdamUnchecked(&c, w, g, m, v) }); n != 0 {
		t.Fatalf("AdamUnchecked allocates %v per call", n)
	}
}
