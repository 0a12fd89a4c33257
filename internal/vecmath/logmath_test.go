package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// mathSpecials are the inputs the stdlib routines branch on, and the
// edges of their main path.
var mathSpecials = []float64{
	0, math.Copysign(0, -1), -1, -5e-324, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
	5e-324, 2.5e-308, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
	math.MaxFloat64, 1, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
	math.Nextafter(math.Sqrt2/2, 1), 2, 1e-9, 1e300,
}

// mathDraw returns a value of one of the shapes the tests sweep: a
// special, a random bit pattern (any sign, exponent or NaN payload), a
// log-uniform positive magnitude, or the engine's range — distances in
// metres and Rayleigh fade powers.
func mathDraw(rng *rand.Rand, special bool) float64 {
	if special {
		return mathSpecials[rng.Intn(len(mathSpecials))]
	}
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return math.Exp(rng.Float64()*1400 - 700)
	case 2:
		return rng.Float64() * 3000
	default:
		return rng.ExpFloat64()
	}
}

// sameBits reports whether two slices hold the same float64 bit
// patterns, NaN payloads included.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s [%d]: got %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLogIntoMatchesMath: LogInto equals math.Log bit for bit at every
// length from 0 to 67 — whole quads, tails, and special-case lanes
// (±0, negatives, ±Inf, NaN) alone or mixed into otherwise ordinary
// quads at every density — on the AVX2 kernel and on the generic loop,
// in place and not, and over a large sweep of random bit patterns and
// magnitudes that binds the kernel to this toolchain's math.Log.
func TestLogIntoMatchesMath(t *testing.T) {
	defer ForceGeneric(false)
	rng := rand.New(rand.NewSource(46))
	for _, generic := range []bool{false, true} {
		ForceGeneric(generic)
		for n := 0; n <= 67; n++ {
			for _, density := range []int{0, 1, 4, 16} {
				src := make([]float64, n)
				for i := range src {
					src[i] = mathDraw(rng, density > 0 && rng.Intn(density) == 0)
				}
				want := make([]float64, n)
				for i, x := range src {
					want[i] = math.Log(x)
				}
				got := make([]float64, n+1)
				got[n] = 42
				LogInto(got, src)
				sameBits(t, "LogInto", got[:n], want)
				if got[n] != 42 {
					t.Fatalf("n=%d: LogInto wrote past len(src)", n)
				}
				LogInto(src, src)
				sameBits(t, "LogInto in place", src, want)
			}
		}
		// Every fraction exactly √2/2, at every exponent: the only
		// inputs on which the reduction's cmpnlt and a plain less-than
		// disagree, and on one of them the results differ.
		var edge []float64
		for e := -1074; e <= 1023; e++ {
			edge = append(edge, math.Ldexp(math.Sqrt2/2, e))
		}
		want := make([]float64, len(edge))
		for i, x := range edge {
			want[i] = math.Log(x)
		}
		LogInto(edge, edge)
		sameBits(t, "LogInto of √2/2·2^e", edge, want)
		const big = 1 << 18
		src, got := make([]float64, big), make([]float64, big)
		for i := range src {
			src[i] = mathDraw(rng, rng.Intn(64) == 0)
		}
		LogInto(got, src)
		for i, x := range src {
			if w := math.Log(x); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("generic=%v: Log(%v = %#x) = %v, want %v", generic, x, math.Float64bits(x), got[i], w)
			}
		}
	}
}

// TestHypotIntoMatchesMath is TestLogIntoMatchesMath for HypotInto:
// special lanes are Inf or NaN in either argument, or both arguments
// zero (of either sign); one zero argument takes the main path.
func TestHypotIntoMatchesMath(t *testing.T) {
	defer ForceGeneric(false)
	rng := rand.New(rand.NewSource(47))
	draw := func(density int) (float64, float64) {
		p := mathDraw(rng, density > 0 && rng.Intn(density) == 0)
		q := mathDraw(rng, density > 0 && rng.Intn(density) == 0)
		switch rng.Intn(8) {
		case 0:
			q = 0
		case 1:
			p = math.Copysign(0, -1)
		case 2:
			q = -q
		case 3:
			q = p
		}
		return p, q
	}
	for _, generic := range []bool{false, true} {
		ForceGeneric(generic)
		for n := 0; n <= 67; n++ {
			for _, density := range []int{0, 1, 4, 16} {
				p, q := make([]float64, n), make([]float64, n)
				for i := range p {
					p[i], q[i] = draw(density)
				}
				want := make([]float64, n)
				for i := range p {
					want[i] = math.Hypot(p[i], q[i])
				}
				got := make([]float64, n+1)
				got[n] = 42
				HypotInto(got, p, q)
				sameBits(t, "HypotInto", got[:n], want)
				if got[n] != 42 {
					t.Fatalf("n=%d: HypotInto wrote past len(p)", n)
				}
				q2 := append([]float64(nil), q...)
				HypotInto(q2, p, q2)
				sameBits(t, "HypotInto into q", q2, want)
				HypotInto(p, p, q)
				sameBits(t, "HypotInto into p", p, want)
			}
		}
		const big = 1 << 18
		p, q, got := make([]float64, big), make([]float64, big), make([]float64, big)
		for i := range p {
			p[i], q[i] = draw(64)
		}
		HypotInto(got, p, q)
		for i := range p {
			if w := math.Hypot(p[i], q[i]); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("generic=%v: Hypot(%v, %v) = %v, want %v", generic, p[i], q[i], got[i], w)
			}
		}
	}
}

// TestLogHypotIntoAllocFree: the batch calls allocate nothing.
func TestLogHypotIntoAllocFree(t *testing.T) {
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	dst := make([]float64, 64)
	if a := testing.AllocsPerRun(10, func() {
		LogInto(dst, src)
		HypotInto(dst, src, src)
	}); a != 0 {
		t.Fatalf("%v allocations per batch", a)
	}
}
