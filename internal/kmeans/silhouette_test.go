package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

// silhouetteAssignments returns the labelings the gather kernel must
// reproduce: uniform over k, only even clusters used (empty odd ones)
// with point 0 a singleton in cluster 1, and everything in one cluster.
func silhouetteAssignments(n, k int, rng *rand.Rand) map[string][]int {
	uniform := make([]int, n)
	gaps := make([]int, n)
	one := make([]int, n)
	for i := range uniform {
		uniform[i] = rng.Intn(k)
		gaps[i] = 2 * rng.Intn((k+1)/2)
		one[i] = k - 1
	}
	gaps[0] = 1
	return map[string][]int{"uniform": uniform, "gaps": gaps, "one": one}
}

// TestSilhouetteDistsMatchesSilhouettePool holds the cluster-ordered
// gather to the scatter over raw points, bit for bit, across sizes off
// every multiple of four, k around the quad and pool widths, with
// empty clusters, singletons and duplicate points (zero distances off
// the diagonal). One matrix per n serves every k, so the scratch is
// regrown and reused along the way.
func TestSilhouetteDistsMatchesSilhouettePool(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pools := []*parallel.Pool{nil, parallel.New(1), parallel.New(2), parallel.New(4)}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 257, 2000} {
		points := randPoints(n, 5, rng)
		for i := 3; i < n; i += 7 {
			points[i] = vecmath.Clone(points[i-3])
		}
		dists, err := PairDistances(points, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 8, 16, 17} {
			for name, assign := range silhouetteAssignments(n, k, rng) {
				want, err := SilhouettePool(points, assign, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				for pi, pool := range pools {
					got, err := SilhouetteDists(dists, assign, k, pool)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d k=%d %s pool#%d: gather %v (%x), scatter %v (%x)",
							n, k, name, pi, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestSilhouetteDistsAllocFree gates the sequential reward path of DDQN
// training: after the first call on a matrix, none allocates.
func TestSilhouetteDistsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	points := randPoints(300, 8, rng)
	dists, err := PairDistances(points, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign := silhouetteAssignments(300, 8, rng)["uniform"]
	if _, err := SilhouetteDists(dists, assign, 8, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := SilhouetteDists(dists, assign, 8, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SilhouetteDists allocates %v per call", n)
	}
}

// TestPairDistancesRows holds the matrix to the one-pair distance,
// pooled or not, and each row to an allocation of exactly n: rows cut
// from one n×n block would have room past their end (every row but the
// last), and that block is what the row layout keeps off the heap.
func TestPairDistancesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, n := range []int{1, 5, 257} {
		points := randPoints(n, 6, rng)
		for _, pool := range []*parallel.Pool{nil, parallel.New(2)} {
			dists, err := PairDistances(points, pool)
			if err != nil {
				t.Fatal(err)
			}
			if dists.N != n || len(dists.Rows) != n {
				t.Fatalf("n=%d: matrix %d with %d rows", n, dists.N, len(dists.Rows))
			}
			for i, row := range dists.Rows {
				if len(row) != n || cap(row) != n {
					t.Fatalf("n=%d row %d: len %d cap %d", n, i, len(row), cap(row))
				}
				for j := range row {
					want := math.Sqrt(vecmath.SqDistUnchecked(points[i], points[j]))
					if math.Float64bits(dists.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("n=%d D[%d,%d] = %v, want %v", n, i, j, dists.At(i, j), want)
					}
				}
			}
		}
	}
}

// TestPairDistancesMatchesOnePairScan holds every entry of the matrix,
// both triangles and the diagonal, to the one-pair scan of its own
// ordered pair, at sizes on both sides of the mirror's tile and of the
// four-column kernel, on points with exact duplicates and with
// coordinates of both signs, zeros and subnormals, sequential and on a
// 2-worker pool. The pooled mirror pass reads rows other indices wrote
// in the first pass, so under -race this is also the fan-out's check.
func TestPairDistancesMatchesOnePairScan(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-308, 1e3, -1e3}
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 2, 3, 5, 31, 32, 33, 97} {
		points := make([]vecmath.Vec, n)
		for i := range points {
			if i > 0 && rng.Intn(4) == 0 {
				points[i] = points[rng.Intn(i)] // a duplicate point
				continue
			}
			p := make(vecmath.Vec, 5)
			for d := range p {
				if rng.Intn(4) == 0 {
					p[d] = special[rng.Intn(len(special))]
				} else {
					p[d] = rng.NormFloat64()
				}
			}
			points[i] = p
		}
		for _, pool := range []*parallel.Pool{nil, parallel.New(2)} {
			dists, err := PairDistances(points, pool)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := math.Sqrt(vecmath.SqDistUnchecked(points[i], points[j]))
					if math.Float64bits(dists.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("n=%d pooled=%v: D[%d,%d] = %x, one-pair scan %x",
							n, pool != nil, i, j, math.Float64bits(dists.At(i, j)), math.Float64bits(want))
					}
				}
			}
		}
	}
}
