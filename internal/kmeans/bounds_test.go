package kmeans

import (
	"math/rand"
	"testing"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

// clusteredPoints draws points around g Gaussian blobs — the shape
// that exercises the bound pruning (well-separated owners) while the
// blob overlap keeps boundary points rescanning.
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

// naiveRun is the classic Lloyd loop the bounded path must reproduce:
// K-means++ seeding, then every point re-evaluated against every
// centroid each iteration, with Run's update step, iteration cap and
// stopping rule.
func naiveRun(points []vecmath.Vec, k int, rng *rand.Rand) (*Result, error) {
	centroids, err := SeedPlusPlus(points, k, rng)
	if err != nil {
		return nil, err
	}
	assign := make([]int, len(points))
	counts := make([]int, k)
	sums := make([]vecmath.Vec, k)
	for i := range sums {
		sums[i] = make(vecmath.Vec, len(points[0]))
	}
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		if err := AssignPoints(points, centroids, assign, nil); err != nil {
			return nil, err
		}
		if updateCentroids(points, centroids, assign, counts, sums, nil) < tol {
			iter++
			break
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += vecmath.SqDistUnchecked(p, centroids[assign[i]])
	}
	return &Result{K: k, Centroids: centroids, Assign: assign, Inertia: inertia, Iterations: iter}, nil
}

func wantSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.K != want.K || got.Iterations != want.Iterations || got.Inertia != want.Inertia {
		t.Fatalf("%s: k/iters/inertia %d/%d/%v want %d/%d/%v",
			tag, got.K, got.Iterations, got.Inertia, want.K, want.Iterations, want.Inertia)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d want %d", tag, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if got.Centroids[c][j] != want.Centroids[c][j] {
				t.Fatalf("%s: centroid[%d][%d] = %v want %v",
					tag, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
}

// TestBoundedLloydMatchesNaive is the equivalence gate for the
// Hamerly-bounded assignment: bit-identical assignments, centroids,
// inertia and iteration counts to the naive full-reassignment loop,
// across seeds, point counts, dimensions, cluster counts and pool
// widths — including the n == k edge case and duplicate points.
func TestBoundedLloydMatchesNaive(t *testing.T) {
	cases := []struct {
		name   string
		n, dim int
		k      int
		blobs  int
		spread float64
	}{
		{"tiny", 8, 2, 3, 2, 0.3},
		{"n-eq-k", 5, 3, 5, 2, 0.5},
		{"k1", 40, 4, 1, 3, 0.4},
		{"separated", 300, 8, 6, 6, 0.05},
		{"overlapping", 300, 8, 6, 3, 1.5},
		{"large", 1000, 6, 8, 8, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				points := clusteredPoints(tc.n, tc.dim, tc.blobs, tc.spread, rng)
				naive, err := naiveRun(points, tc.k, rand.New(rand.NewSource(seed+100)))
				if err != nil {
					t.Fatal(err)
				}
				bounded, err := Run(points, tc.k, rand.New(rand.NewSource(seed+100)), Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantSameResult(t, tc.name, bounded, naive)
				for _, workers := range []int{2, 8} {
					pooled, err := Run(points, tc.k, rand.New(rand.NewSource(seed+100)),
						Options{Pool: parallel.New(workers)})
					if err != nil {
						t.Fatal(err)
					}
					wantSameResult(t, tc.name, pooled, naive)
				}
			}
		})
	}
}

// TestBoundedLloydDuplicatePoints covers coincident points (ties at
// distance zero) and empty-cluster re-seeding, where the naive loop's
// lowest-index tie-breaking and the teleporting centroid stress the
// bound maintenance.
func TestBoundedLloydDuplicatePoints(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randPoints(20, 3, rng)
		points := make([]vecmath.Vec, 0, 60)
		for _, p := range base {
			points = append(points, p, vecmath.Clone(p), vecmath.Clone(p))
		}
		naive, err := naiveRun(points, 7, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Run(points, 7, rand.New(rand.NewSource(seed)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantSameResult(t, "duplicates", bounded, naive)
	}
}

// TestRunRejectsTooFewPoints pins the n < k contract the bounded path
// shares with the reference loop.
func TestRunRejectsTooFewPoints(t *testing.T) {
	points := randPoints(3, 2, rand.New(rand.NewSource(1)))
	if _, err := Run(points, 4, rand.New(rand.NewSource(2)), Options{}); err == nil {
		t.Fatal("want error for n < k")
	}
	if _, err := naiveRun(points, 4, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("reference loop: want error for n < k")
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
