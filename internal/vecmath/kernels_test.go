package vecmath

import (
	"math/rand"
	"testing"
)

func TestUncheckedKernelsMatchChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(17)
		a, b := make(Vec, n), make(Vec, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		wantSq, err := SqDist(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := SqDistUnchecked(a, b); got != wantSq {
			t.Fatalf("SqDistUnchecked = %v want %v", got, wantSq)
		}
		y1, y2 := Clone(b), Clone(b)
		if err := AXPY(0.7, a, y1); err != nil {
			t.Fatal(err)
		}
		AXPYUnchecked(0.7, a, y2)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("AXPYUnchecked[%d] = %v want %v", i, y2[i], y1[i])
			}
		}
	}
}

func TestKernelsAllocFree(t *testing.T) {
	x := make(Vec, 16)
	dst := make(Vec, 16)
	for i := range x {
		x[i] = float64(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		AXPYUnchecked(0.5, x, dst)
		_ = SqDistUnchecked(x, dst)
	}); n != 0 {
		t.Fatalf("kernels allocate %v per run", n)
	}
}
