//go:build !amd64 || purego

package vecmath

// useAVX2 is constant false without the amd64 assembly kernels, so
// the dispatch branch in AXPYUnchecked folds away and the scalar loop
// compiles exactly as it did before the kernel layer existed.
func useAVX2() bool { return false }

// ForceGeneric is a no-op without dispatched kernels: every call
// already runs the portable implementation.
func ForceGeneric(force bool) {}

// axpyAVX2 is never reachable on this build; the stub satisfies the
// shared dispatch call site.
func axpyAVX2(alpha float64, x, y *float64, n int) {
	panic("vecmath: axpyAVX2 called without AVX2 support")
}

// adamAVX2 is never reachable on this build either.
func adamAVX2(c *AdamCoeffs, w, grad, m, v *float64, n int) {
	panic("vecmath: adamAVX2 called without AVX2 support")
}

// adamNoBC1AVX2 is never reachable on this build either.
func adamNoBC1AVX2(c *AdamCoeffs, w, grad, m, v *float64, n int) {
	panic("vecmath: adamNoBC1AVX2 called without AVX2 support")
}

// rowSweepAVX2 is never reachable on this build either.
func rowSweepAVX2(dst *float64, n int, coef *float64, cs int, b *float64, bs int, k int) {
	panic("vecmath: rowSweepAVX2 called without AVX2 support")
}

// logAVX2 is never reachable on this build either.
func logAVX2(dst, src *float64, n int) int {
	panic("vecmath: logAVX2 called without AVX2 support")
}

// hypotAVX2 is never reachable on this build either.
func hypotAVX2(dst, p, q *float64, n int) int {
	panic("vecmath: hypotAVX2 called without AVX2 support")
}

// distSums8AVX2 is never reachable on this build either.
func distSums8AVX2(sums *[8]float64, block, staged *float64, dim int, members *int, m int) {
	panic("vecmath: distSums8AVX2 called without AVX2 support")
}
