// This file holds the checkpoint encoding of K-means output state.
// A clustering Run itself is stateless between calls, but the
// centroids it produced are long-lived engine state — every multicast
// group keeps its code-space centroid for migration assignment — so
// they ride in session checkpoints via these helpers.

package kmeans

import (
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/vecmath"
)

// EncodeCentroids appends a centroid set to a checkpoint section:
// count, then each centroid as a length-prefixed float64 slice.
func EncodeCentroids(e *checkpoint.Enc, cs []vecmath.Vec) {
	e.U32(uint32(len(cs)))
	for _, c := range cs {
		e.F64s([]float64(c))
	}
}

// DecodeCentroids reads a centroid set written by EncodeCentroids.
func DecodeCentroids(d *checkpoint.Dec) []vecmath.Vec {
	n := d.U32()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]vecmath.Vec, 0, min(int(n), 4096))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		out = append(out, vecmath.Vec(d.F64s()))
	}
	return out
}
