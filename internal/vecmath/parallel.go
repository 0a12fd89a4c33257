package vecmath

// GEMMPool runs MatMulInto on the calling goroutine: every GEMM takes
// the sequential kernel. It holds no state and exists only because the
// benchmark harness's GEMM probe still builds one; it goes when that
// harness is next edited.
type GEMMPool struct{}

// NewGEMMPool returns a pool; the worker bound is ignored.
func NewGEMMPool(int) *GEMMPool { return &GEMMPool{} }

// Close does nothing.
func (*GEMMPool) Close() {}

// MatMulInto is the package MatMulInto.
func (*GEMMPool) MatMulInto(dst, a, b *Matrix) error { return MatMulInto(dst, a, b) }
