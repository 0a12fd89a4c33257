package vecmath

import "math"

// Distance sums over staged rows: the silhouette's inner loop.
//
// A silhouette needs, for every point i and every cluster c, the sum of
// the Euclidean distances from i to c's members, added in ascending
// member order. StageRows lays the points out so that DistSums8Unchecked
// can compute eight rows' distances to one member with 4-wide
// arithmetic: rows 4q…4q+3 form quad q, stored dimension-major (the
// four rows' coordinate 0, then their coordinate 1, …), and the quads
// follow one another. The row count is padded to a multiple of eight by
// repeating the last row, so every block of eight rows (two quads) is
// whole. A member's coordinates are read at stride 4 from its quad.
//
// Each distance is one scalar chain per lane: ascending dimension, a
// rounded subtract, a rounded multiply and a rounded add, then a
// correctly rounded square root — SqDistUnchecked's operations in
// SqDistUnchecked's order, so every distance, and every lane's sum of
// distances, is bit-identical to the scalar loop. The assembly never
// fuses the multiply into the add; amd64 Go does not either, and the
// portable loop is written as SqDistUnchecked is, so a target that
// fuses one fuses both alike.

// StageRows writes points into dst in the staged layout and returns it,
// reusing dst's storage when it is large enough. Every point must have
// len(points[0]) coordinates and there must be at least one point; the
// caller checks both.
func StageRows(dst []float64, points []Vec) []float64 {
	dim := len(points[0])
	rows := (len(points) + 7) &^ 7
	if cap(dst) < rows*dim {
		dst = make([]float64, rows*dim)
	}
	dst = dst[:rows*dim]
	for i := 0; i < rows; i++ {
		p := points[min(i, len(points)-1)]
		quad := dst[(i>>2)*4*dim:]
		for d, v := range p[:dim] {
			quad[d*4+(i&3)] = v
		}
	}
	return dst
}

// DistSums8Unchecked adds to sums[r], for each row index j of members
// in order, the Euclidean distance √(Σ_d (x_{r,d} − y_{j,d})²) between
// row r of block and row j of staged, for r in [0, 8). block is one
// eight-row block of a StageRows layout (8·dim floats, quad 2b then
// quad 2b+1) and staged is a whole layout of dim-coordinate rows; the
// caller guarantees every member indexes a row of staged. On amd64 with
// AVX2 (and without the `purego` tag) the eight lanes run as two 4-wide
// chains in assembly that share each member's broadcast coordinates;
// otherwise the portable loop runs. Both are bit-identical to summing
// math.Sqrt(SqDistUnchecked(row r, row j)) over the members in order.
func DistSums8Unchecked(sums *[8]float64, block, staged []float64, dim int, members []int) {
	block = block[:8*dim]
	if len(members) > 0 && useAVX2() {
		distSums8AVX2(sums, &block[0], &staged[0], dim, &members[0], len(members))
		return
	}
	distSums8Generic(sums, block, staged, dim, members)
}

// distSums8Generic is the portable distance-sum kernel and the purego
// fallback. Each quad's four chains advance together, one dimension at
// a time, which hides the add latency as SqDist4Unchecked does; each
// chain is written as SqDistUnchecked's is, so on every target it
// rounds exactly as SqDistUnchecked does.
func distSums8Generic(sums *[8]float64, block, staged []float64, dim int, members []int) {
	for _, j := range members {
		y := staged[(j>>2)*4*dim+(j&3):]
		y = y[:4*(dim-1)+1]
		for q := 0; q < 2; q++ {
			x := block[q*4*dim : (q+1)*4*dim]
			var s0, s1, s2, s3 float64
			for d := 0; d < len(y); d += 4 {
				xd, yv := x[d:d+4:d+4], y[d]
				v0 := xd[0] - yv
				s0 += v0 * v0
				v1 := xd[1] - yv
				s1 += v1 * v1
				v2 := xd[2] - yv
				s2 += v2 * v2
				v3 := xd[3] - yv
				s3 += v3 * v3
			}
			sums[4*q] += math.Sqrt(s0)
			sums[4*q+1] += math.Sqrt(s1)
			sums[4*q+2] += math.Sqrt(s2)
			sums[4*q+3] += math.Sqrt(s3)
		}
	}
}
