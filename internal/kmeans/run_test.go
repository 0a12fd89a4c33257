package kmeans

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

// clusteredPoints draws points around g Gaussian blobs, the shape of
// user codes: well-separated groups whose overlap leaves boundary
// points to move between clusters.
func clusteredPoints(n, dim, g int, spread float64, rng *rand.Rand) []vecmath.Vec {
	centers := randPoints(g, dim, rng)
	pts := make([]vecmath.Vec, n)
	for i := range pts {
		c := centers[rng.Intn(g)]
		p := make(vecmath.Vec, dim)
		for j := range p {
			p[j] = c[j] + spread*rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// runDigest is a SHA-256 over everything Run returns: the assignment,
// the centroid bits, the iteration count and the inertia bits.
func runDigest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, a := range r.Assign {
		put(uint64(a))
	}
	for _, c := range r.Centroids {
		for _, v := range c {
			put(math.Float64bits(v))
		}
	}
	put(uint64(r.Iterations))
	put(math.Float64bits(r.Inertia))
	return hex.EncodeToString(h.Sum(nil))
}

// duplicatePoints is copies of each of base distinct random points.
func duplicatePoints(base, copies, dim int, rng *rand.Rand) []vecmath.Vec {
	points := make([]vecmath.Vec, 0, base*copies)
	for _, p := range randPoints(base, dim, rng) {
		for range copies {
			points = append(points, vecmath.Clone(p))
		}
	}
	return points
}

// TestRunPinned pins Run's bits at the shapes the system clusters —
// raw windows (dim 85) and CNN codes (dim 8) of a 60-user campus, a
// 500-code cell and a 2000-code population — and at a duplicate-point
// set with more clusters than distinct points, where clusters stay
// empty with every point on its centroid and Run stops at its first
// iteration. The digests hold with and without a pool: the pool only
// fans out the assignment.
func TestRunPinned(t *testing.T) {
	cases := []struct {
		name   string
		points []vecmath.Vec
		k      int
		want   string
	}{
		{"raw60", clusteredPoints(60, 85, 4, 0.4, rand.New(rand.NewSource(1))), 4,
			"320f714258ff25422663e84cec0a7c9bd357d4000cacd094d092407db1f16a14"},
		{"code500", clusteredPoints(500, 8, 4, 0.4, rand.New(rand.NewSource(2))), 4,
			"2d9aac6fce9d65131cc294fe3f98f4537a68dc030a1c30191bbcf302a7a0cd33"},
		{"code2000", clusteredPoints(2000, 8, 8, 0.4, rand.New(rand.NewSource(3))), 8,
			"b6090023a58d489656b071471c8d11ff1d3ed6e5e1484385d9c7e874ebbeeb0a"},
		{"duplicates", duplicatePoints(5, 4, 3, rand.New(rand.NewSource(4))), 7,
			"b02d112e9bb2d124be67049a856d5607e8159855e82d83af58b7a57682ba9823"},
	}
	for _, tc := range cases {
		for _, pool := range []*parallel.Pool{nil, parallel.New(4)} {
			res, err := Run(tc.points, tc.k, rand.New(rand.NewSource(42)), Options{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(res); got != tc.want {
				t.Errorf("%s (pool %v): digest %s want %s (%d iterations)",
					tc.name, pool != nil, got, tc.want, res.Iterations)
			}
		}
	}
}

// TestRunDuplicatePoints covers coincident points (ties at distance
// zero, which resolve to the lowest centroid index): copies of a point
// share its cluster, the inertia is the assignment's, and a pool
// changes nothing.
func TestRunDuplicatePoints(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		points := duplicatePoints(20, 3, 3, rand.New(rand.NewSource(seed)))
		res, err := Run(points, 7, rand.New(rand.NewSource(seed)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var inertia float64
		for i, p := range points {
			if i%3 != 0 && res.Assign[i] != res.Assign[i-1] {
				t.Fatalf("seed %d: copies %d and %d of one point in clusters %d and %d",
					seed, i-1, i, res.Assign[i-1], res.Assign[i])
			}
			inertia += vecmath.SqDistUnchecked(p, res.Centroids[res.Assign[i]])
		}
		if inertia != res.Inertia {
			t.Fatalf("seed %d: inertia %v, assignment's %v", seed, res.Inertia, inertia)
		}
		pooled, err := Run(points, 7, rand.New(rand.NewSource(seed)), Options{Pool: parallel.New(4)})
		if err != nil {
			t.Fatal(err)
		}
		if runDigest(pooled) != runDigest(res) {
			t.Fatalf("seed %d: a pool changed the result", seed)
		}
	}
}

// TestRunRejectsTooFewPoints pins the n < k contract.
func TestRunRejectsTooFewPoints(t *testing.T) {
	points := randPoints(3, 2, rand.New(rand.NewSource(1)))
	if _, err := Run(points, 4, rand.New(rand.NewSource(2)), Options{}); err == nil {
		t.Fatal("want error for n < k")
	}
}

// TestSilhouetteDistsScratchReuse asserts repeated SilhouetteDists
// calls on one staged set (the DDQN reward pattern) stay bit-identical
// to the reference scatter while reusing the internal scratch across
// different k.
func TestSilhouetteDistsScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := randPoints(80, 5, rng)
	dists, err := PairDistances(points, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 3, 6, 2} {
		res, err := Run(points, k, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := silhouetteScatter(points, res.Assign, k)
		got, err := SilhouetteDists(dists, res.Assign, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("k=%d: silhouette %v want %v", k, got, want)
		}
	}
}

// BenchmarkLloyd runs Run at the shapes the system clusters: raw-window
// codes (dim 85) and CNN codes (dim 8) of a 60-user campus, CNN codes
// of a 500-user cell, and of a 3000-user population.
func BenchmarkLloyd(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n, dim int
		k      int
	}{
		{"raw60", 60, 85, 4},
		{"code60", 60, 8, 4},
		{"code500", 500, 8, 4},
		{"code3000", 3000, 8, 6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pts := clusteredPoints(bc.n, bc.dim, bc.k, 0.4, rand.New(rand.NewSource(1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(pts, bc.k, rand.New(rand.NewSource(2)), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
