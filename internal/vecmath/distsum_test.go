package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillDistRow draws a point mixing normal coordinates with the values
// that stress a distance chain: signed zeros, subnormals, magnitudes
// whose squares overflow or whose differences cancel, and copies of
// other coordinates.
func fillDistRow(rng *rand.Rand, p Vec) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-308, 1e200, -1e200, 1e-160, 3.7e153}
	for d := range p {
		switch rng.Intn(6) {
		case 0:
			p[d] = special[rng.Intn(len(special))]
		case 1:
			if d > 0 {
				p[d] = p[d-1]
				continue
			}
			p[d] = rng.NormFloat64()
		default:
			p[d] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
}

// TestDistSums8MatchesOnePairScan holds every lane of the distance-sum
// kernel to Σ √SqDistUnchecked(row, member) over the members in order,
// bit for bit, dispatched and with ForceGeneric: dimensions 1–17, point
// counts off every multiple of eight (so the padding rows are read),
// member lists of length 0–37 in random order with repeats and the
// block's own rows, and sums that start away from zero.
func TestDistSums8MatchesOnePairScan(t *testing.T) {
	defer ForceGeneric(false)
	rng := rand.New(rand.NewSource(52))
	for dim := 1; dim <= 17; dim++ {
		for _, n := range []int{1, 5, 8, 13, 21} {
			points := make([]Vec, n)
			for i := range points {
				points[i] = make(Vec, dim)
				if i > 0 && rng.Intn(5) == 0 {
					copy(points[i], points[rng.Intn(i)]) // a duplicate point
					continue
				}
				fillDistRow(rng, points[i])
			}
			staged := StageRows(nil, points)
			rows := (n + 7) &^ 7
			if len(staged) != rows*dim {
				t.Fatalf("dim=%d n=%d: staged %d floats, want %d", dim, n, len(staged), rows*dim)
			}
			for trial := 0; trial < 6; trial++ {
				members := make([]int, rng.Intn(38))
				for m := range members {
					members[m] = rng.Intn(n)
				}
				var start [8]float64
				for r := range start {
					start[r] = float64(rng.Intn(3)) * rng.Float64()
				}
				for blk := 0; blk < rows/8; blk++ {
					block := staged[blk*8*dim : (blk+1)*8*dim]
					for _, generic := range []bool{false, true} {
						ForceGeneric(generic)
						got := start
						DistSums8Unchecked(&got, block, staged, dim, members)
						for r := range got {
							// Rows past n repeat the last point.
							row := points[min(8*blk+r, n-1)]
							want := start[r]
							for _, j := range members {
								want += math.Sqrt(SqDistUnchecked(row, points[j]))
							}
							if math.Float64bits(got[r]) != math.Float64bits(want) {
								t.Fatalf("dim=%d n=%d block %d lane %d generic=%v members %v: %v (%x), one-pair scan %v (%x)",
									dim, n, blk, r, generic, members, got[r], math.Float64bits(got[r]), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// TestStageRowsReusesStorage pins StageRows' buffer contract: a large
// enough dst is written in place, a short one is replaced.
func TestStageRowsReusesStorage(t *testing.T) {
	points := []Vec{{1, 2}, {3, 4}, {5, 6}}
	buf := make([]float64, 0, 64)
	got := StageRows(buf, points)
	if len(got) != 16 || &got[0] != &buf[:1][0] {
		t.Fatalf("staged %d floats, in place %v", len(got), &got[0] == &buf[:1][0])
	}
	// Quad 0 holds rows 0–2 and a copy of row 2, dimension-major.
	want := []float64{1, 3, 5, 5, 2, 4, 6, 6, 5, 5, 5, 5, 6, 6, 6, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("staged %v, want %v", got, want)
		}
	}
	if grown := StageRows(make([]float64, 4), points); len(grown) != 16 {
		t.Fatalf("short dst: staged %d floats, want 16", len(grown))
	}
}

// TestDistSums8AllocFree gates the silhouette's inner call: the
// dispatch and either kernel leave the heap alone.
func TestDistSums8AllocFree(t *testing.T) {
	points := make([]Vec, 40)
	rng := rand.New(rand.NewSource(53))
	for i := range points {
		points[i] = make(Vec, 8)
		fillDistRow(rng, points[i])
	}
	staged := StageRows(nil, points)
	members := []int{3, 1, 39, 17, 17, 0}
	var sums [8]float64
	if n := testing.AllocsPerRun(100, func() {
		DistSums8Unchecked(&sums, staged[8*8:16*8], staged, 8, members)
	}); n != 0 {
		t.Fatalf("DistSums8Unchecked allocates %v per call", n)
	}
}

// BenchmarkDistSums8 measures one eight-row block against 2000 member
// rows, the silhouette's unit of work at the benchmark workloads' code
// width (8) and at a raw-window width (80); ns/member is per member
// row, eight distances each.
func BenchmarkDistSums8(b *testing.B) {
	for _, dim := range []int{8, 80} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(54))
			points := make([]Vec, 2000)
			for i := range points {
				points[i] = make(Vec, dim)
				for d := range points[i] {
					points[i][d] = rng.NormFloat64()
				}
			}
			staged := StageRows(nil, points)
			members := rng.Perm(len(points))
			var sums [8]float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DistSums8Unchecked(&sums, staged[:8*dim], staged, dim, members)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(members)), "ns/member")
		})
	}
}
