package nn

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

// adamReference is the per-element Adam loop Step ran before it went
// through vecmath.AdamUnchecked, kept as the reference its bits are
// held to.
func adamReference(params []Param, m, v [][]float64, t int, lr, beta1, beta2, eps float64) {
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	for i, p := range params {
		for j := range p.W {
			g := p.G[j]
			m[i][j] = beta1*m[i][j] + (1-beta1)*g
			v[i][j] = beta2*v[i][j] + (1-beta2)*g*g
			mh := m[i][j] / bc1
			vh := v[i][j] / bc2
			p.W[j] -= lr * mh / (math.Sqrt(vh) + eps)
		}
	}
}

// TestAdamStepMatchesReference steps Adam over parameter sets of the
// compressor's and the agent's shapes (lengths off every multiple of
// four) with the dispatched and the forced-generic kernels, and checks
// every weight against the reference loop bit for bit.
func TestAdamStepMatchesReference(t *testing.T) {
	defer vecmath.ForceGeneric(false)
	lens := []int{120, 8, 512, 8, 640, 80, 1, 3, 257}
	for _, generic := range []bool{false, true} {
		vecmath.ForceGeneric(generic)
		rng := rand.New(rand.NewSource(5))
		params := make([]Param, len(lens))
		ref := make([]Param, len(lens))
		m, v := make([][]float64, len(lens)), make([][]float64, len(lens))
		for i, n := range lens {
			params[i] = Param{W: make([]float64, n), G: make([]float64, n)}
			for j := range params[i].W {
				params[i].W[j] = rng.NormFloat64()
			}
			ref[i] = Param{W: append([]float64(nil), params[i].W...), G: params[i].G}
			m[i], v[i] = make([]float64, n), make([]float64, n)
		}
		opt := NewAdam(1e-3 * math.Sqrt(8))
		for step := 1; step <= 5; step++ {
			for _, p := range params {
				for j := range p.G {
					p.G[j] = rng.NormFloat64()
				}
			}
			if err := opt.Step(params); err != nil {
				t.Fatal(err)
			}
			adamReference(ref, m, v, step, opt.LR, opt.Beta1, opt.Beta2, opt.Eps)
			for i := range params {
				for j, w := range params[i].W {
					if math.Float64bits(w) != math.Float64bits(ref[i].W[j]) {
						t.Fatalf("generic=%v step %d param %d[%d]: %x want %x",
							generic, step, i, j, math.Float64bits(w), math.Float64bits(ref[i].W[j]))
					}
				}
			}
		}
	}
}
