package kmeans

import (
	"math/rand"
	"testing"
)

// The naive-vs-bounded A/B at the three shapes the system actually
// clusters: raw-window codes (dim ~85) and CNN codes (dim 8) at
// campus scale, and CNN codes at cluster-cell scale.
func benchLloyd(b *testing.B, n, dim, k int, naive bool) {
	rng := rand.New(rand.NewSource(1))
	pts := clusteredPoints(n, dim, k, 0.4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if naive {
			_, err = naiveRun(pts, k, rand.New(rand.NewSource(2)))
		} else {
			_, err = Run(pts, k, rand.New(rand.NewSource(2)), Options{})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLloyd(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n, dim int
		k      int
		naive  bool
	}{
		{"raw60/naive", 60, 85, 4, true},
		{"raw60/bounded", 60, 85, 4, false},
		{"code60/naive", 60, 8, 4, true},
		{"code60/bounded", 60, 8, 4, false},
		{"code3000/naive", 3000, 8, 6, true},
		{"code3000/bounded", 3000, 8, 6, false},
	} {
		b.Run(bc.name, func(b *testing.B) { benchLloyd(b, bc.n, bc.dim, bc.k, bc.naive) })
	}
}
