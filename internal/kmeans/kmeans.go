// Package kmeans implements the K-means++ seeding and Lloyd iteration
// used for fast multicast-group construction (paper §II-B1, second
// step), plus the cluster-quality scores (inertia, silhouette)
// consumed by the DDQN reward.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

// ErrInput indicates invalid clustering input.
var ErrInput = errors.New("kmeans: invalid input")

// Result holds the outcome of a clustering run.
type Result struct {
	// K is the number of clusters.
	K int
	// Centroids[k] is the center of cluster k.
	Centroids []vecmath.Vec
	// Assign[i] is the cluster index of point i.
	Assign []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Options tunes the clustering run.
type Options struct {
	// Pool optionally fans the assignment step across workers. The
	// result is bit-identical to the sequential path: every point's
	// nearest-centroid decision is independent, and reductions stay in
	// index order.
	Pool *parallel.Pool
}

const (
	// maxIter bounds the Lloyd iterations.
	maxIter = 100
	// tol stops the iterations early once the total centroid movement
	// falls below it.
	tol = 1e-6
)

func validate(points []vecmath.Vec, k int) error {
	if k <= 0 {
		return fmt.Errorf("k=%d: %w", k, ErrInput)
	}
	if len(points) < k {
		return fmt.Errorf("%d points for k=%d: %w", len(points), k, ErrInput)
	}
	dim := len(points[0])
	if dim == 0 {
		return fmt.Errorf("zero-dimensional points: %w", ErrInput)
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("point %d dim %d want %d: %w", i, len(p), dim, ErrInput)
		}
	}
	return nil
}

// SeedPlusPlus chooses k initial centroids with the K-means++ rule:
// the first uniformly, each subsequent one with probability
// proportional to its squared distance to the nearest chosen centroid.
func SeedPlusPlus(points []vecmath.Vec, k int, rng *rand.Rand) ([]vecmath.Vec, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	centroids := make([]vecmath.Vec, 0, k)
	centroids = append(centroids, vecmath.Clone(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := vecmath.SqDistUnchecked(p, last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		var idx int
		if total == 0 {
			// All points coincide with chosen centroids; fall back to
			// uniform choice to keep progress.
			idx = rng.Intn(len(points))
		} else {
			u := rng.Float64() * total
			var acc float64
			idx = len(points) - 1
			for i, d := range d2 {
				acc += d
				if acc >= u {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, vecmath.Clone(points[idx]))
	}
	return centroids, nil
}

// AssignPoints writes the index of the nearest centroid (squared
// Euclidean distance, ties to the lowest index) for every point into
// assign. It is the zero-allocation K-means assignment kernel; pool
// may be nil for the sequential path, and the output is identical
// either way. Dimensions must be uniform — callers go through
// validate (or Run) first.
func AssignPoints(points, centroids []vecmath.Vec, assign []int, pool *parallel.Pool) error {
	if len(assign) != len(points) {
		return fmt.Errorf("assign %d for %d points: %w", len(assign), len(points), ErrInput)
	}
	if len(centroids) == 0 {
		return fmt.Errorf("no centroids: %w", ErrInput)
	}
	if pool != nil && pool.Workers() > 1 {
		return pool.For(len(points), func(i int) error {
			assign[i] = nearestCentroid(points[i], centroids)
			return nil
		})
	}
	for i, p := range points {
		assign[i] = nearestCentroid(p, centroids)
	}
	return nil
}

func nearestCentroid(p vecmath.Vec, centroids []vecmath.Vec) int {
	best, bestD := 0, math.Inf(1)
	// Four centroids per pass through the multi-chain kernel; the
	// argmin compares in ascending centroid order either way, so ties
	// still resolve to the lowest index.
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		d0, d1, d2, d3 := vecmath.SqDist4Unchecked(
			p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < len(centroids); c++ {
		if d := vecmath.SqDistUnchecked(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Run clusters points into k groups using K-means++ seeding followed
// by Lloyd iterations. Every iteration assigns every point to its
// nearest centroid with AssignPoints, fanned across opts.Pool when one
// is set, then moves each centroid to its cluster's mean.
func Run(points []vecmath.Vec, k int, rng *rand.Rand, opts Options) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	centroids, err := SeedPlusPlus(points, k, rng)
	if err != nil {
		return nil, err
	}
	dim := len(points[0])
	assign := make([]int, len(points))
	counts := make([]int, k)
	sums := make([]vecmath.Vec, k)
	for i := range sums {
		sums[i] = make(vecmath.Vec, dim)
	}

	var iter int
	for iter = 0; iter < maxIter; iter++ {
		if err := AssignPoints(points, centroids, assign, opts.Pool); err != nil {
			return nil, err
		}
		if updateCentroids(points, centroids, assign, counts, sums) < tol {
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

// updateCentroids is the Lloyd update step: recompute per-cluster
// sums, move every centroid to its mean, and return the total
// movement. An empty cluster is re-seeded at the point farthest from
// its centroid (the first such point), which counts as a movement of
// 1 so the loop runs another iteration. When even that point lies on
// its centroid, so does every point, and a re-seed would only stack
// the empty centroid on a covered point: it stays and counts nothing,
// so a set with more clusters than distinct points converges instead
// of re-seeding until maxIter.
func updateCentroids(points, centroids []vecmath.Vec, assign, counts []int, sums []vecmath.Vec) float64 {
	for c := range sums {
		counts[c] = 0
		for j := range sums[c] {
			sums[c][j] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			sums[c][j] += v
		}
	}
	var moved float64
	for c := range centroids {
		if counts[c] == 0 {
			far, farD := 0, -1.0
			for i, p := range points {
				if d := vecmath.SqDistUnchecked(p, centroids[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			if farD > 0 {
				moved++
				copy(centroids[c], points[far])
			}
			continue
		}
		inv := 1 / float64(counts[c])
		var delta float64
		for j := range centroids[c] {
			nv := sums[c][j] * inv
			d := nv - centroids[c][j]
			delta += d * d
			centroids[c][j] = nv
		}
		moved += math.Sqrt(delta)
	}
	return moved
}

// DistMatrix is a fixed point set staged for silhouette scoring. The
// DDQN reward scores many clusterings of the same codes; SilhouetteDists
// computes each distance it needs on the fly from the staged rows
// (vecmath.StageRows), so the set costs O(n·d) memory at any n — an
// n×n matrix would be 32 MB at 2000 codes and 2 GB at 16 000 — and
// each distance is bit-identical to √SqDistUnchecked of its two points.
type DistMatrix struct {
	N   int
	dim int
	// staged holds the points in vecmath.StageRows' layout.
	staged []float64

	// Silhouette scratch, grown by the first SilhouetteDists call and
	// reused by the many a DDQN training run makes against one set, so
	// the per-episode reward evaluation allocates nothing. order lists
	// the point ids grouped by cluster, ascending within each, and
	// cluster c's members are order[start[c]:start[c+1]]. Calls on the
	// same set must not overlap (they never do: each builder owns its
	// set and evaluates one clustering at a time; the pool fan-out
	// inside a call writes index-owned contrib slots).
	sizes   []int
	start   []int
	order   []int
	contrib []float64
}

// At returns the distance between points i and j, computed by the
// kernel SilhouetteDists runs.
func (m *DistMatrix) At(i, j int) float64 {
	var sums [8]float64
	blk := i >> 3
	vecmath.DistSums8Unchecked(&sums, m.staged[blk*8*m.dim:(blk+1)*8*m.dim], m.staged, m.dim, []int{j})
	return sums[i&7]
}

// Stage validates points and stages them into m, reusing m's storage
// when it is large enough, so one DistMatrix can score one point set
// after another without allocating.
func (m *DistMatrix) Stage(points []vecmath.Vec) error {
	if len(points) == 0 {
		return fmt.Errorf("pair distances of no points: %w", ErrInput)
	}
	dim := len(points[0])
	if dim == 0 {
		return fmt.Errorf("zero-dimensional points: %w", ErrInput)
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("pair distances point %d dim %d want %d: %w", i, len(p), dim, ErrInput)
		}
	}
	m.N, m.dim = len(points), dim
	m.staged = vecmath.StageRows(m.staged, points)
	return nil
}

// PairDistances validates the points and stages them for
// SilhouetteDists. Staging is O(n·d), so pool is not used.
func PairDistances(points []vecmath.Vec, pool *parallel.Pool) (*DistMatrix, error) {
	m := new(DistMatrix)
	if err := m.Stage(points); err != nil {
		return nil, err
	}
	return m, nil
}

// SilhouetteDists is the mean silhouette of a clustering of the staged
// points. It allocates nothing after its first call on a DistMatrix.
//
// The point ids are counting-sorted by cluster (O(n), ascending id
// within each cluster), and each row's sum over a cluster is gathered
// by walking that cluster's members in ascending id, eight rows at a
// time through vecmath.DistSums8Unchecked: one cluster walk feeds eight
// independent sums. A row's sum therefore receives the same distances
// in the same order as a scatter over ascending j into per-cluster
// buckets, the definition's loop, and is bit-identical to it.
//
// The gather does not skip j == i, where the scatter does. That adds
// d(i,i) to row i's own-cluster sum, and the addition is the identity:
// d(i,i) = √(Σ(x−x)²) is exactly +0 for finite points, and a partial
// sum of distances starts at +0 and adds values ≥ +0, so it is never
// −0, the one value s + (+0) would change.
func SilhouetteDists(dists *DistMatrix, assign []int, k int, pool *parallel.Pool) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("silhouette k=%d: %w", k, ErrInput)
	}
	if dists == nil || dists.N == 0 || len(assign) != dists.N {
		return 0, fmt.Errorf("silhouette dists for %d assigns: %w", len(assign), ErrInput)
	}
	n := dists.N
	if cap(dists.sizes) < k {
		dists.sizes = make([]int, k)
		dists.start = make([]int, k+1)
	}
	if cap(dists.order) < n {
		dists.order = make([]int, n)
		dists.contrib = make([]float64, n)
	}
	sizes, start, order := dists.sizes[:k], dists.start[:k+1], dists.order[:n]
	clear(sizes)
	for _, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("silhouette assign %d outside [0,%d): %w", a, k, ErrInput)
		}
		sizes[a]++
	}
	// start[c+1] begins at cluster c's offset and is advanced past each
	// member placed, ending at cluster c+1's offset.
	start[0], start[1] = 0, 0
	for c := 1; c < k; c++ {
		start[c+1] = start[c] + sizes[c-1]
	}
	for i, a := range assign {
		order[start[a+1]] = i
		start[a+1]++
	}
	blocks := (n + 7) / 8
	if pool != nil && pool.Workers() > 1 {
		// Nothing fails: the blocks return nil and For is not cancellable.
		_ = pool.For(blocks, func(blk int) error {
			dists.silhouetteBlock(blk, assign, k)
			return nil
		})
	} else {
		for blk := 0; blk < blocks; blk++ {
			dists.silhouetteBlock(blk, assign, k)
		}
	}
	var total float64
	for _, c := range dists.contrib[:n] {
		total += c
	}
	return total / float64(n), nil
}

// silhouetteBlock computes the silhouette contributions of rows
// 8·blk…8·blk+7. Rows past the last are its copies (StageRows' padding):
// they are computed and not stored.
func (m *DistMatrix) silhouetteBlock(blk int, assign []int, k int) {
	n, dim := m.N, m.dim
	block := m.staged[blk*8*dim : (blk+1)*8*dim]
	var own [8]int
	for r := range own {
		own[r] = assign[min(8*blk+r, n-1)]
	}
	var ownSum [8]float64
	b := [8]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	for c := 0; c < k; c++ {
		size := m.sizes[c]
		if size == 0 {
			continue
		}
		var s [8]float64
		vecmath.DistSums8Unchecked(&s, block, m.staged, dim, m.order[m.start[c]:m.start[c+1]])
		for r := range s {
			if c == own[r] {
				ownSum[r] = s[r]
			} else if mean := s[r] / float64(size); mean < b[r] {
				b[r] = mean
			}
		}
	}
	for r := range own {
		if i := 8*blk + r; i < n {
			m.contrib[i] = silhouetteScore(ownSum[r], m.sizes[own[r]], b[r])
		}
	}
}

// silhouetteScore is one point's silhouette from the sum of its
// distances to the rest of its own cluster and b, the smallest mean
// distance to another non-empty cluster: 0 for singletons or when no
// other cluster exists. The minimum b is the same in any cluster order.
func silhouetteScore(ownSum float64, ownSize int, b float64) float64 {
	if ownSize <= 1 || math.IsInf(b, 1) {
		return 0
	}
	a := ownSum / float64(ownSize-1)
	den := math.Max(a, b)
	if den <= 0 {
		return 0
	}
	return (b - a) / den
}
