package vecmath

// Batched math.Log and math.Hypot, bit-identical to the stdlib.
//
// The simulation's tick loop takes two logarithms and one hypotenuse
// per sample. Go's amd64 routines for both are scalar and wait on a
// DIVSD (and a SQRTSD) per call; the 4-wide copies in logmath_amd64.s
// run four independent lanes through the same operations, so a batch
// costs a quarter of the divides' latency while every result keeps its
// bits. Lanes the stdlib treats as special cases are handed back to
// math.Log / math.Hypot a quad at a time, and the `purego` build, non-
// amd64 targets and pre-AVX2 hardware run the math loop.

import "math"

// LogInto sets dst[i] = math.Log(src[i]) for every i, bit for bit. dst
// must hold at least len(src) values; it may be src itself, but must
// not overlap it otherwise.
func LogInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if n := len(src) &^ 3; n > 0 && useAVX2() {
		for i < n {
			i += logAVX2(&dst[i], &src[i], n-i)
			if i == n {
				break
			}
			// The quad at i holds a special-case lane.
			for end := i + 4; i < end; i++ {
				dst[i] = math.Log(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Log(src[i])
	}
}

// HypotInto sets dst[i] = math.Hypot(p[i], q[i]) for every i, bit for
// bit. q and dst must hold at least len(p) values; dst may be p or q
// itself, but must not overlap them otherwise.
func HypotInto(dst, p, q []float64) {
	dst, q = dst[:len(p)], q[:len(p)]
	i := 0
	if n := len(p) &^ 3; n > 0 && useAVX2() {
		for i < n {
			i += hypotAVX2(&dst[i], &p[i], &q[i], n-i)
			if i == n {
				break
			}
			// The quad at i holds a special-case lane.
			for end := i + 4; i < end; i++ {
				dst[i] = math.Hypot(p[i], q[i])
			}
		}
	}
	for ; i < len(p); i++ {
		dst[i] = math.Hypot(p[i], q[i])
	}
}
