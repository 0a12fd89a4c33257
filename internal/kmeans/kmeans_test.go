package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsvs/internal/vecmath"
)

// threeBlobs generates three well-separated Gaussian blobs.
func threeBlobs(rng *rand.Rand, perBlob int) ([]vecmath.Vec, []int) {
	centers := []vecmath.Vec{{0, 0}, {10, 10}, {-10, 10}}
	var pts []vecmath.Vec
	var labels []int
	for c, center := range centers {
		for i := 0; i < perBlob; i++ {
			pts = append(pts, vecmath.Vec{
				center[0] + rng.NormFloat64()*0.5,
				center[1] + rng.NormFloat64()*0.5,
			})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := []vecmath.Vec{{1, 2}, {3, 4}}
	if _, err := Run(pts, 0, rng, Options{}); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := Run(pts, 3, rng, Options{}); !errors.Is(err, ErrInput) {
		t.Fatalf("more clusters than points: want ErrInput, got %v", err)
	}
	if _, err := Run([]vecmath.Vec{{1, 2}, {3}}, 1, rng, Options{}); !errors.Is(err, ErrInput) {
		t.Fatalf("ragged points: want ErrInput, got %v", err)
	}
	if _, err := Run([]vecmath.Vec{{}}, 1, rng, Options{}); !errors.Is(err, ErrInput) {
		t.Fatalf("zero-dim points: want ErrInput, got %v", err)
	}
	if _, err := new(Scratch).Run(pts, 0, rng, Options{}); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}

func TestSeedPlusPlusCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := threeBlobs(rng, 20)
	seeds := new(Scratch).seed(pts, 3, rng)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	// Seeds must be copies, not aliases.
	seeds[0][0] = 1e9
	for _, p := range pts {
		if p[0] == 1e9 {
			t.Fatal("seed aliases input point")
		}
	}
}

func TestSeedPlusPlusDegenerate(t *testing.T) {
	// All identical points: seeding must still terminate.
	pts := []vecmath.Vec{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	rng := rand.New(rand.NewSource(3))
	seeds := new(Scratch).seed(pts, 3, rng)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds", len(seeds))
	}
}

func TestRunRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, labels := threeBlobs(rng, 40)
	res, err := Run(pts, 3, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to exactly one cluster (purity 100%
	// given the separation).
	blobToCluster := map[int]int{}
	for i, lbl := range labels {
		c := res.Assign[i]
		if prev, ok := blobToCluster[lbl]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", lbl, prev, c)
			}
		} else {
			blobToCluster[lbl] = c
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("blobs merged: %v", blobToCluster)
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia %v must be positive for noisy blobs", res.Inertia)
	}
	sizes := make([]int, res.K)
	for _, c := range res.Assign {
		sizes[c]++
	}
	for c, s := range sizes {
		if s != 40 {
			t.Fatalf("cluster %d size %d, want 40", c, s)
		}
	}
}

func TestRunK1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := []vecmath.Vec{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	res, err := Run(pts, 1, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 || math.Abs(res.Centroids[0][1]-1) > 1e-9 {
		t.Fatalf("k=1 centroid %v, want (1,1)", res.Centroids[0])
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	pts, _ := threeBlobs(rand.New(rand.NewSource(6)), 30)
	r1, err := Run(pts, 3, rand.New(rand.NewSource(99)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(pts, 3, rand.New(rand.NewSource(99)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
	if r1.Inertia != r2.Inertia {
		t.Fatal("same seed must give same inertia")
	}
}

// Inertia must be non-increasing in k (on the same data, best case);
// we verify the weaker sound property: k=n gives (near) zero inertia.
func TestInertiaZeroAtKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := []vecmath.Vec{{1, 1}, {5, 5}, {9, 1}, {-3, 4}}
	res, err := Run(pts, len(pts), rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("inertia %v at k=n, want ~0", res.Inertia)
	}
}

// Property: every point is assigned to its nearest centroid when Lloyd
// terminates.
func TestNearestCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		pts := make([]vecmath.Vec, n)
		for i := range pts {
			pts[i] = vecmath.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		k := 1 + rng.Intn(4)
		res, err := Run(pts, k, rng, Options{})
		if err != nil {
			return false
		}
		for i, p := range pts {
			dOwn, _ := vecmath.SqDist(p, res.Centroids[res.Assign[i]])
			for _, c := range res.Centroids {
				d, _ := vecmath.SqDist(p, c)
				if d < dOwn-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouette(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := threeBlobs(rng, 25)
	res, err := Run(pts, 3, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := silhouette(pts, res.Assign, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.8 {
		t.Fatalf("silhouette %v for well-separated blobs, want > 0.8", s)
	}
	// Degenerate k.
	if _, err := silhouette(pts, res.Assign, 1, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := silhouette(pts, []int{0}, 2, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := silhouette([]vecmath.Vec{{1}, {2}}, []int{0, 5}, 2, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("out-of-range assign: want ErrInput, got %v", err)
	}
}

func TestSilhouetteRandomWorseThanStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := threeBlobs(rng, 25)
	res, err := Run(pts, 3, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := silhouette(pts, res.Assign, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	randAssign := make([]int, len(pts))
	for i := range randAssign {
		randAssign[i] = rng.Intn(3)
	}
	bad, err := silhouette(pts, randAssign, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Fatalf("structured silhouette %v not better than random %v", good, bad)
	}
}

func TestEmptyClusterReseed(t *testing.T) {
	// Duplicate-heavy data can produce empty clusters mid-run; Run
	// must still return k centroids with all assignments valid.
	pts := []vecmath.Vec{
		{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0},
		{100, 100}, {100.5, 100}, {0.1, 0},
	}
	rng := rand.New(rand.NewSource(11))
	res, err := Run(pts, 3, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 3 {
			t.Fatalf("invalid assignment %d", a)
		}
	}
}
