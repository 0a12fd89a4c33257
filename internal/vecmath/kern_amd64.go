//go:build amd64 && !purego

package vecmath

// axpyUseAVX2 is the init-time dispatch decision: true when CPUID
// reports AVX2 (with OS support for the YMM state). ForceGeneric can
// clear it at runtime for same-binary A/B comparisons.
var axpyUseAVX2 bool

// useAVX2 reports whether AXPYUnchecked routes to the AVX2 kernel.
func useAVX2() bool { return axpyUseAVX2 }

// ForceGeneric routes every dispatched kernel to the portable scalar
// implementation (force=true) or restores the init-time CPU feature
// decision (force=false). It exists for equivalence tests and
// interleaved A/B benchmarks; it is not synchronized, so call it only
// while no other goroutine is inside a vecmath kernel.
func ForceGeneric(force bool) {
	axpyUseAVX2 = cpuHasAVX2 && !force
}

// axpyAVX2 computes y[i] += alpha*x[i] for i in [0,n) with 4-wide
// AVX2 multiplies and adds (no fused ops — see kernels.go for the
// rounding contract). Implemented in kern_amd64.s.
//
//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

// adamAVX2 applies the Adam update of AdamUnchecked to the first n
// elements of w, grad, m and v, 4-wide; n must be a positive multiple of
// 4. Implemented in kern_amd64.s.
//
//go:noescape
func adamAVX2(c *AdamCoeffs, w, grad, m, v *float64, n int)

// adamNoBC1AVX2 is adamAVX2 without the divide by c.BC1, for steps
// whose BC1 is exactly 1. Implemented in kern_amd64.s.
//
//go:noescape
func adamNoBC1AVX2(c *AdamCoeffs, w, grad, m, v *float64, n int)

// rowSweepAVX2 computes dst[0:n] += Σ coef[kk*cs]·b[kk*bs : kk*bs+n]
// over kk ascending in [0, k), skipping ±0 coefficients, with the
// destination row held in YMM registers; n >= 4 and k >= 1.
// Implemented in kern_amd64.s.
//
//go:noescape
func rowSweepAVX2(dst *float64, n int, coef *float64, cs int, b *float64, bs int, k int)

// logAVX2 writes math.Log of whole quads of src[0:n] to dst, stopping
// before the first quad holding a special-case lane, and returns the
// number of elements written. Implemented in logmath_amd64.s.
//
//go:noescape
func logAVX2(dst, src *float64, n int) int

// hypotAVX2 writes math.Hypot of whole quads of p[0:n] and q[0:n] to
// dst, stopping before the first quad holding a special-case lane, and
// returns the number of elements written. Implemented in
// logmath_amd64.s.
//
//go:noescape
func hypotAVX2(dst, p, q *float64, n int) int

// cpuid executes CPUID for (leaf, subleaf). Implemented in
// kern_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable register the OS uses
// to advertise which vector state it saves on context switch.
// Implemented in kern_amd64.s.
func xgetbv0() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return
	}
	// XCR0 bits 1 (SSE) and 2 (AVX/YMM) must both be OS-enabled.
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	cpuHasAVX2 = b7&avx2Bit != 0
	cpuHasFMA = c1&fmaBit != 0
	axpyUseAVX2 = cpuHasAVX2
}

// distSums8AVX2 is DistSums8Unchecked's kernel: for each of the m row
// indices at members, the eight distances from the rows of block to
// that row of staged, each added to its lane of sums. dim and m are
// positive. Implemented in kern_amd64.s.
//
//go:noescape
func distSums8AVX2(sums *[8]float64, block, staged *float64, dim int, members *int, m int)
