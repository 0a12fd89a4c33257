package kmeans

import (
	"errors"
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

// silhouetteScatter is the reference silhouette: for every point, the
// distances to every other point, one pair at a time, added in
// ascending j into per-cluster buckets, then the mean of the points'
// scores in index order.
func silhouetteScatter(points []vecmath.Vec, assign []int, k int) float64 {
	n := len(points)
	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	sumTo := make([]float64, k)
	var total float64
	for i, p := range points {
		clear(sumTo)
		for j, q := range points {
			if j != i {
				sumTo[assign[j]] += math.Sqrt(vecmath.SqDistUnchecked(p, q))
			}
		}
		total += silhouetteOf(sumTo, sizes, assign[i])
	}
	return total / float64(n)
}

// silhouetteOf turns one point's per-cluster distance sums into its
// silhouette contribution.
func silhouetteOf(sumTo []float64, sizes []int, own int) float64 {
	b := math.Inf(1)
	for c := range sumTo {
		if c == own || sizes[c] == 0 {
			continue
		}
		if m := sumTo[c] / float64(sizes[c]); m < b {
			b = m
		}
	}
	return silhouetteScore(sumTo[own], sizes[own], b)
}

// TestSilhouetteDistsMatchesSilhouettePool holds the cluster-ordered
// gather, and SilhouettePool over it, to the scatter over raw points,
// bit for bit, across sizes off every multiple of eight, k around the
// block width and pool widths, with empty clusters, singletons and
// duplicate points (zero distances off the diagonal). One staged set per
// n serves every k, so the scratch is regrown and reused along the way.
func TestSilhouetteDistsMatchesSilhouettePool(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pools := []*parallel.Pool{nil, parallel.New(1), parallel.New(2)}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 257, 2000} {
		points := randPoints(n, 5, rng)
		for i := 3; i < n; i += 7 {
			points[i] = vecmath.Clone(points[i-3])
		}
		dists, err := PairDistances(points, nil)
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{2, 3, 8, 9, 17}
		if n == 2000 {
			ks = []int{2, 9}
		}
		for _, k := range ks {
			for name, assign := range silhouetteAssignments(n, k, rng) {
				want := silhouetteScatter(points, assign, k)
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
				got, err := SilhouettePool(points, assign, k, pools[2])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d k=%d %s: SilhouettePool %v, scatter %v", n, k, name, got, want)
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

// TestPairDistancesMatchesOnePairScan holds every distance the staged
// set yields, both orders of each pair and the diagonal, to the
// one-pair scan of its own ordered pair, at sizes on both sides of the
// eight-row block, on points with exact duplicates and with coordinates
// of both signs, zeros and subnormals.
func TestPairDistancesMatchesOnePairScan(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-308, 1e3, -1e3}
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 97} {
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
		dists, err := PairDistances(points, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dists.N != n {
			t.Fatalf("n=%d: staged %d points", n, dists.N)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := math.Sqrt(vecmath.SqDistUnchecked(points[i], points[j]))
				if got := dists.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d: D[%d,%d] = %x, one-pair scan %x",
						n, i, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestStageRejectsRaggedPoints pins Stage's validation and its reuse of
// a set's storage for the next, smaller point set.
func TestStageRejectsRaggedPoints(t *testing.T) {
	var m DistMatrix
	for _, points := range [][]vecmath.Vec{nil, {{}}, {{1, 2}, {3}}} {
		if err := m.Stage(points); !errors.Is(err, ErrInput) {
			t.Fatalf("Stage(%v) = %v, want ErrInput", points, err)
		}
	}
	rng := rand.New(rand.NewSource(46))
	if err := m.Stage(randPoints(40, 4, rng)); err != nil {
		t.Fatal(err)
	}
	small := randPoints(9, 3, rng)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := m.Stage(small); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("restaging a smaller set allocates %v", allocs)
	}
	if m.N != 9 || m.At(8, 0) != math.Sqrt(vecmath.SqDistUnchecked(small[8], small[0])) {
		t.Fatalf("restaged set: N=%d D[8,0]=%v", m.N, m.At(8, 0))
	}
}
