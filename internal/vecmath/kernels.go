package vecmath

// CPU-dispatched micro-kernels for the learning hot path.
//
// The package's determinism contract — every destination element
// accumulates its inner sum in fixed ascending index order, bit-
// identical across machines, build tags and worker counts — survives
// vectorization only for elementwise kernels such as AXPY:
// y[i] += alpha*x[i] touches each element's sum exactly once per call,
// so a 4-wide SIMD lane computes the same rounded multiply and add the
// scalar loop does. The Adam update (AdamUnchecked) is elementwise in
// the same way. The AVX2 kernels therefore use separate VMULPD/VADDPD
// (never VFMADDxxx: a fused multiply-add rounds once where the scalar
// contract rounds twice, which would change result bits) and are
// selected once at init via CPUID feature detection; the `purego`
// build tag, non-amd64 targets and pre-AVX2 hardware all fall back to
// the scalar loop, and ForceGeneric flips the dispatch at runtime for
// same-binary A/B tests and benchmarks.
//
// Reductions are different: a single squared distance is one strictly
// sequential chain of rounded adds, so no reassociating
// (multi-accumulator or horizontal-SIMD) implementation can be
// bit-identical to it. Instead of changing the contract, the K-means
// hot path batches *independent* outputs: SqDist4Unchecked computes
// four sums at once, each with its own accumulator walking ascending
// indices — bit-identical per output to SqDistUnchecked — while the
// four independent add chains hide the FP-add latency that bounds a
// lone chain. It is hand-unrolled portable Go, identical on every
// platform and build tag by construction. The silhouette's
// DistSums8Unchecked (distsum.go) batches the same way in AVX2: eight
// rows' distance chains per member, one per lane.

import "math"

// cpuHasAVX2 / cpuHasFMA record what CPUID detection found at init
// (always false on non-amd64 and under the purego tag). FMA presence
// is recorded for bench environment blocks even though the kernels
// deliberately never emit fused ops.
var cpuHasAVX2, cpuHasFMA bool

// CPUInfo describes the kernel dispatch decision for this process.
type CPUInfo struct {
	// AVX2 and FMA report CPUID feature detection (with OS XSAVE
	// support for the YMM state). Always false under `purego` and on
	// non-amd64 targets.
	AVX2, FMA bool
	// Kernel names the AXPY micro-kernel implementation in use:
	// "avx2" or "generic".
	Kernel string
}

// CPU reports the detected CPU features and the active kernel
// implementation, for bench environment records and logs.
func CPU() CPUInfo {
	info := CPUInfo{AVX2: cpuHasAVX2, FMA: cpuHasFMA, Kernel: "generic"}
	if useAVX2() {
		info.Kernel = "avx2"
	}
	return info
}

// axpyGeneric is the portable AXPY micro-kernel: the reslice hoists
// the per-element bounds check out of the loop. It is the purego
// fallback of the dispatched kernel and the reference implementation
// the equivalence tests compare against. The float64 conversion rounds
// the product on its own, so no target fuses it into the add.
func axpyGeneric(alpha float64, x, y Vec) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += float64(alpha * xv)
	}
}

// AdamCoeffs are the scalars of one Adam step. The field order is the
// layout the AVX2 kernel reads; do not reorder.
type AdamCoeffs struct {
	B1, C1   float64 // β₁ and 1−β₁
	B2, C2   float64 // β₂ and 1−β₂
	LR, Eps  float64
	BC1, BC2 float64 // this step's bias corrections 1−β₁ᵗ and 1−β₂ᵗ
}

// AdamUnchecked applies one Adam step to the weights w, given their
// gradients g and first and second moment estimates m and v, which it
// updates in place: per element
//
//	m = β₁·m + (1−β₁)·g
//	v = β₂·v + ((1−β₂)·g)·g
//	w = w − (lr·(m/bc1)) / (√(v/bc2) + eps)
//
// with every operation rounded on its own, in that association. The
// caller guarantees g, m and v have length >= len(w). The update is
// elementwise, so on amd64 with AVX2 (and without the `purego` tag)
// vectors of at least four elements run 4-wide assembly — VMULPD,
// VADDPD, VDIVPD, VSQRTPD, VSUBPD and never FMA, each lane rounding
// exactly as the scalar loop does — and the results are bit-identical
// to adamGeneric for every non-NaN input. Once β₁ᵗ ≤ 2⁻⁵⁴, half the
// spacing of the doubles just below 1 (from step 356 at β₁ = 0.9), bc1
// rounds to exactly 1, and the assembly takes a second entry point
// without the divide by it: m/1 is m for every m, and that divide is
// one of the four divider-bound operations (three divides and a square
// root) that set the kernel's speed. bc2 stays below 1 for tens of
// thousands of steps, so its divide stays.
func AdamUnchecked(c *AdamCoeffs, w, g, m, v Vec) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	if n := len(w) &^ 3; n > 0 && useAVX2() {
		if c.BC1 == 1 {
			adamNoBC1AVX2(c, &w[0], &g[0], &m[0], &v[0], n)
		} else {
			adamAVX2(c, &w[0], &g[0], &m[0], &v[0], n)
		}
		w, g, m, v = w[n:], g[n:], m[n:], v[n:]
	}
	adamGeneric(c, w, g, m, v)
}

// adamGeneric is the portable Adam update and the reference the
// kernel equivalence tests compare against. The float64 conversions
// round each product on its own, so no build may fuse a multiply into
// the following add.
func adamGeneric(c *AdamCoeffs, w, g, m, v Vec) {
	b1, c1, b2, c2 := c.B1, c.C1, c.B2, c.C2
	lr, eps, bc1, bc2 := c.LR, c.Eps, c.BC1, c.BC2
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for j, gj := range g {
		mj := float64(b1*m[j]) + float64(c1*gj)
		vj := float64(b2*v[j]) + float64(float64(c2*gj)*gj)
		m[j], v[j] = mj, vj
		w[j] -= lr * (mj / bc1) / (math.Sqrt(vj/bc2) + eps)
	}
}

// SqDist4Unchecked computes the four squared Euclidean distances of a
// to b0..b3 without shape checks: the caller guarantees every b has
// length >= len(a). Each output is bit-identical to
// SqDistUnchecked(a, bN): each sum owns its accumulator and walks
// ascending indices, and the four independent chains exist purely to
// hide FP-add latency.
func SqDist4Unchecked(a, b0, b1, b2, b3 Vec) (s0, s1, s2, s3 float64) {
	b0 = b0[:len(a)]
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	b3 = b3[:len(a)]
	for i, av := range a {
		d0 := av - b0[i]
		s0 += d0 * d0
		d1 := av - b1[i]
		s1 += d1 * d1
		d2 := av - b2[i]
		s2 += d2 * d2
		d3 := av - b3[i]
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}
