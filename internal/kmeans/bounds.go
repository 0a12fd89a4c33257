package kmeans

import (
	"math"

	"dtmsvs/internal/parallel"
	"dtmsvs/internal/vecmath"
)

// Bounded Lloyd assignment (Elkan/Hamerly style): every point carries
// an upper bound on the distance to its current centroid and, per
// centroid, a lower bound on the distance to that centroid. After an
// update step moves the centroids, the bounds are loosened by the
// per-centroid drifts; a point whose upper bound stays strictly below
// both its smallest other-centroid lower bound and half the gap to its
// centroid's nearest peer provably cannot change owner, so the
// k-distance rescan is skipped. Points that do rescan still skip every
// centroid whose lower bound proves it cannot win the comparison. The
// per-centroid bounds matter here because the empty-cluster re-seeding
// teleports one centroid at a time: only that centroid's bound
// collapses, and a rescan touches it alone instead of all k.
//
// Equivalence with the naive full-reassignment loop: the whole-point
// prune uses strict inequalities, so a point whose nearest centroid is
// tied (where the naive scan's lowest-index tie-break decides) always
// falls through to the rescan; the rescan walks centroids in index
// order with the naive comparison, and skips a centroid only when its
// lower bound — shrunk by a slack factor that dominates the ~1e-14
// relative float drift the bound maintenance can accumulate — proves
// the naive `d < best` comparison would be false anyway. The update
// step is shared code, so assignments, centroids, iteration counts and
// inertia are bit-identical to the naive path
// (TestBoundedLloydMatchesNaive covers this across seeds, sizes and
// pool widths).

// boundSlack shrinks a squared lower bound before it is allowed to
// prune an exact-distance computation. Bound maintenance accumulates
// at most a few ulps (~1e-16 relative) of float error per iteration
// across ≤ maxIter iterations, so 1e-12 dominates it by orders of
// magnitude while giving up a vanishing amount of pruning.
const boundSlack = 1 - 1e-12

// boundsState is the per-run bound state.
type boundsState struct {
	k     int
	ub    []float64 // ub[i] ≥ dist(point i, its centroid)
	lb    []float64 // n×k: lb[i*k+c] ≤ dist(point i, centroid c)
	drift []float64 // centroid movement of the last update step
	sep   []float64 // sep[c] = ½·min distance from c to another centroid
}

func newBoundsState(n, k int) *boundsState {
	return &boundsState{
		k:     k,
		ub:    make([]float64, n),
		lb:    make([]float64, n*k),
		drift: make([]float64, k),
		sep:   make([]float64, k),
	}
}

// assignFull is the first-iteration full scan: identical assignment
// decisions to AssignPoints, plus bound initialization. The
// sequential path calls fullOne directly — no closure, no heap.
func (bs *boundsState) assignFull(points, centroids []vecmath.Vec, assign []int, pool *parallel.Pool) {
	if pool != nil && pool.Workers() > 1 {
		_ = pool.For(len(points), func(i int) error {
			bs.fullOne(i, points, centroids, assign)
			return nil
		})
		return
	}
	for i := range points {
		bs.fullOne(i, points, centroids, assign)
	}
}

func (bs *boundsState) fullOne(i int, points, centroids []vecmath.Vec, assign []int) {
	p := points[i]
	lbRow := bs.lb[i*bs.k : (i+1)*bs.k]
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		d := vecmath.SqDistUnchecked(p, cent)
		lbRow[c] = math.Sqrt(d)
		if d < bestD {
			best, bestD = c, d
		}
	}
	assign[i] = best
	bs.ub[i] = lbRow[best]
}

// updateSeparations refreshes sep after a centroid update.
func (bs *boundsState) updateSeparations(centroids []vecmath.Vec) {
	for c := range bs.sep {
		bs.sep[c] = math.Inf(1)
	}
	for a := 0; a < len(centroids); a++ {
		for b := a + 1; b < len(centroids); b++ {
			d := math.Sqrt(vecmath.SqDistUnchecked(centroids[a], centroids[b]))
			if d < bs.sep[a] {
				bs.sep[a] = d
			}
			if d < bs.sep[b] {
				bs.sep[b] = d
			}
		}
	}
	for c := range bs.sep {
		bs.sep[c] *= 0.5
	}
}

// assignBounded is the bounded assignment step for iterations after
// the first: loosen every bound by its centroid's drift, prune whole
// points where possible, and rescan the survivors with per-centroid
// skips.
func (bs *boundsState) assignBounded(points, centroids []vecmath.Vec, assign []int, pool *parallel.Pool) {
	bs.updateSeparations(centroids)
	if pool != nil && pool.Workers() > 1 {
		_ = pool.For(len(points), func(i int) error {
			bs.boundedOne(i, points, centroids, assign)
			return nil
		})
		return
	}
	for i := range points {
		bs.boundedOne(i, points, centroids, assign)
	}
}

func (bs *boundsState) boundedOne(i int, points, centroids []vecmath.Vec, assign []int) {
	k := bs.k
	a := assign[i]
	ub := bs.ub[i] + bs.drift[a]
	bs.ub[i] = ub
	lbRow := bs.lb[i*k : (i+1)*k]
	minLb := math.Inf(1)
	for c := range lbRow {
		lbc := lbRow[c] - bs.drift[c]
		lbRow[c] = lbc
		if c != a && lbc < minLb {
			minLb = lbc
		}
	}
	// Shrinking the threshold by the slack covers the float drift the
	// loosened ub/lb can carry (ub may underestimate its true bound,
	// lb overestimate, each by ulp-scale error per iteration), so the
	// prune stays provable, matching the rescan's slacked skips.
	thresh := bs.sep[a]
	if minLb > thresh {
		thresh = minLb
	}
	thresh *= boundSlack
	if ub < thresh {
		return // owner provably unchanged (strictly nearest)
	}
	// Rescan in index order with the naive comparison; the exact
	// owner distance joins the skip threshold so early candidates
	// cannot dodge it.
	p := points[i]
	dOwn := vecmath.SqDistUnchecked(p, centroids[a])
	limit := dOwn
	best, bestD := -1, math.Inf(1)
	for c := 0; c < k; c++ {
		var d float64
		if c == a {
			d = dOwn
		} else {
			if lbc := lbRow[c]; lbc > 0 && lbc*lbc*boundSlack > limit {
				continue // provably d ≥ every current candidate
			}
			d = vecmath.SqDistUnchecked(p, centroids[c])
		}
		lbRow[c] = math.Sqrt(d)
		if d < bestD {
			best, bestD = c, d
			if d < limit {
				limit = d
			}
		}
	}
	assign[i] = best
	bs.ub[i] = lbRow[best]
}

// reseedFarthest finds the point farthest from its (possibly
// partially updated) centroid — the empty-cluster re-seed target —
// skipping points whose upper bound proves they cannot win. cluster
// is the empty cluster being re-seeded: clusters below it have
// already moved in this update pass, so their points' bounds are
// additionally loosened by the fresh drift. Returns the same index as
// the naive scan (first strict maximum).
func (bs *boundsState) reseedFarthest(points, centroids []vecmath.Vec, assign []int, cluster int) int {
	far, farD := 0, -1.0
	for i, p := range points {
		a := assign[i]
		ub := bs.ub[i]
		if a < cluster {
			ub += bs.drift[a]
		}
		if ub*ub*(2-boundSlack) <= farD {
			continue // provably cannot exceed the current farthest
		}
		d := vecmath.SqDistUnchecked(p, centroids[a])
		if d > farD {
			far, farD = i, d
		}
	}
	return far
}
