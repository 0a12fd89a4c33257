package kmeans

import (
	"math/rand"
	"testing"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

func randPoints(n, dim int, rng *rand.Rand) []vecmath.Vec {
	pts := make([]vecmath.Vec, n)
	for i := range pts {
		p := make(vecmath.Vec, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestAssignPointsAllocFree is the allocation regression gate for the
// K-means assignment kernel.
func TestAssignPointsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := randPoints(128, 8, rng)
	centroids := randPoints(6, 8, rng)
	assign := make([]int, len(points))
	if n := testing.AllocsPerRun(100, func() {
		if err := AssignPoints(points, centroids, assign, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AssignPoints allocates %v per run", n)
	}
}

// TestAssignPointsParallelIdentical asserts the pooled kernel matches
// the sequential one exactly for every worker count.
func TestAssignPointsParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points := randPoints(257, 6, rng)
	centroids := randPoints(7, 6, rng)
	want := make([]int, len(points))
	if err := AssignPoints(points, centroids, want, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got := make([]int, len(points))
		if err := AssignPoints(points, centroids, got, parallel.New(workers)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: assign[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestAssignPointsValidation(t *testing.T) {
	points := randPoints(4, 3, rand.New(rand.NewSource(5)))
	if err := AssignPoints(points, nil, make([]int, 4), nil); err == nil {
		t.Fatal("want error for no centroids")
	}
	if err := AssignPoints(points, points[:1], make([]int, 2), nil); err == nil {
		t.Fatal("want error for assign length mismatch")
	}
}

// TestSilhouettePoolIdentical asserts the pooled silhouette matches
// the sequential result bit-for-bit.
func TestSilhouettePoolIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := randPoints(120, 5, rng)
	res, err := Run(points, 4, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := silhouette(points, res.Assign, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := silhouette(points, res.Assign, 4, parallel.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: silhouette %v want %v", workers, got, want)
		}
	}
}

// TestRunPoolIdentical asserts a full pooled clustering matches the
// sequential result for the same RNG stream.
func TestRunPoolIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := randPoints(90, 4, rng)
	seq, err := Run(points, 5, rand.New(rand.NewSource(8)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(points, 5, rand.New(rand.NewSource(8)), Options{Pool: parallel.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Inertia != par.Inertia || seq.Iterations != par.Iterations {
		t.Fatalf("pooled run diverged: inertia %v vs %v, iters %d vs %d",
			seq.Inertia, par.Inertia, seq.Iterations, par.Iterations)
	}
	for i := range seq.Assign {
		if seq.Assign[i] != par.Assign[i] {
			t.Fatalf("assign[%d] = %d vs %d", i, seq.Assign[i], par.Assign[i])
		}
	}
}
