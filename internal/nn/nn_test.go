package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(12345)) }

// batchPass is the training surface shared by a Layer and a Network.
type batchPass interface {
	ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error)
	BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error)
	Params() []Param
}

// checkGradients holds one BackwardBatch of m at the input batch x to
// central finite differences of the loss L = Σ out⊙g, for random g:
// every parameter gradient and every input-gradient entry.
func checkGradients(t *testing.T, name string, m batchPass, x *vecmath.Matrix, rng *rand.Rand) {
	t.Helper()
	out, err := m.ForwardBatch(x)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g := vecmath.MustMatrix(out.Rows, out.Cols)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	for _, p := range m.Params() {
		clear(p.G)
	}
	dxOwned, err := m.BackwardBatch(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	dx := dxOwned.Clone()
	loss := func() float64 {
		out, ferr := m.ForwardBatch(x)
		if ferr != nil {
			t.Fatalf("%s: %v", name, ferr)
		}
		var s float64
		for i, v := range out.Data {
			s += v * g.Data[i]
		}
		return s
	}
	const eps, tol = 1e-6, 1e-5
	numeric := func(v *float64) float64 {
		orig := *v
		*v = orig + eps
		lp := loss()
		*v = orig - eps
		lm := loss()
		*v = orig
		return (lp - lm) / (2 * eps)
	}
	for pi, p := range m.Params() {
		for j := range p.W {
			if num := numeric(&p.W[j]); math.Abs(num-p.G[j]) > tol {
				t.Fatalf("%s param %d grad %d: numeric %v analytic %v", name, pi, j, num, p.G[j])
			}
		}
	}
	for i := range x.Data {
		if num := numeric(&x.Data[i]); math.Abs(num-dx.Data[i]) > tol {
			t.Fatalf("%s input grad %d: numeric %v analytic %v", name, i, num, dx.Data[i])
		}
	}
}

// forwardOne runs x through m as a one-row ForwardBatch and returns a
// copy of the output row.
func forwardOne(t *testing.T, m batchPass, x vecmath.Vec) vecmath.Vec {
	t.Helper()
	xm := vecmath.MustMatrix(1, len(x))
	copy(xm.Data, x)
	out, err := m.ForwardBatch(xm)
	if err != nil {
		t.Fatal(err)
	}
	return vecmath.Clone(out.Data)
}

func randMatrix(rows, cols int, rng *rand.Rand) *vecmath.Matrix {
	m := vecmath.MustMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseShapeValidation(t *testing.T) {
	rng := newRNG()
	if _, err := NewDense(0, 3, rng); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	d, err := NewDense(3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ForwardBatch(vecmath.MustMatrix(2, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("forward batch: want ErrShape, got %v", err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(1, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("backward before forward: want ErrShape, got %v", err)
	}
	if _, err := d.OutSize(5); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	out, err := d.OutSize(3)
	if err != nil || out != 2 {
		t.Fatalf("OutSize = %d, %v", out, err)
	}
}

func TestDenseForwardKnownWeights(t *testing.T) {
	d, err := NewDense(2, 2, newRNG())
	if err != nil {
		t.Fatal(err)
	}
	copy(d.w.Data, []float64{1, 2, 3, 4})
	copy(d.b, []float64{0.5, -0.5})
	out := forwardOne(t, d, vecmath.Vec{1, 1})
	if out[0] != 3.5 || out[1] != 6.5 {
		t.Fatalf("forward = %v", out)
	}
}

// Finite-difference check of the dense layer's batched gradients.
func TestDenseGradientNumerically(t *testing.T) {
	rng := newRNG()
	d, err := NewDense(5, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkGradients(t, "dense", d, randMatrix(4, 5, rng), rng)
}

func TestReLU(t *testing.T) {
	var r ReLU
	out := forwardOne(t, &r, vecmath.Vec{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("relu forward %v", out)
	}
	ones := vecmath.MustMatrix(1, 3)
	copy(ones.Data, []float64{1, 1, 1})
	g, err := r.BackwardBatch(ones)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 0 || g.Data[1] != 0 || g.Data[2] != 1 {
		t.Fatalf("relu backward %v", g.Data)
	}
	if _, err := r.BackwardBatch(vecmath.MustMatrix(1, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if r.Params() != nil {
		t.Fatal("relu must be stateless")
	}
}

// Finite-difference checks of the parameter-free layers' batched
// input gradients. Normal draws keep every input off ReLU's kink and
// every pooling window free of ties.
func TestActivationGradientsNumerically(t *testing.T) {
	rng := newRNG()
	pool, err := NewMaxPool1D(2, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]Layer{"relu": &ReLU{}, "tanh": &Tanh{}, "maxpool": pool} {
		checkGradients(t, name, l, randMatrix(3, 12, rng), rng)
	}
}

func TestConv1DValidation(t *testing.T) {
	rng := newRNG()
	if _, err := NewConv1D(0, 8, 2, 3, 1, rng); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := NewConv1D(1, 2, 2, 3, 1, rng); !errors.Is(err, ErrShape) {
		t.Fatalf("kernel>input: want ErrShape, got %v", err)
	}
	c, err := NewConv1D(2, 8, 3, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutLen() != 6 {
		t.Fatalf("OutLen = %d", c.OutLen())
	}
	if _, err := c.ForwardBatch(vecmath.MustMatrix(1, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := c.BackwardBatch(vecmath.MustMatrix(1, 18)); !errors.Is(err, ErrShape) {
		t.Fatalf("backward before forward: want ErrShape, got %v", err)
	}
	n, err := c.OutSize(16)
	if err != nil || n != 18 {
		t.Fatalf("OutSize = %d, %v", n, err)
	}
}

func TestConv1DKnownKernel(t *testing.T) {
	c, err := NewConv1D(1, 4, 1, 2, 1, newRNG())
	if err != nil {
		t.Fatal(err)
	}
	copy(c.w[0][0], []float64{1, 1})
	c.b[0] = 0
	out := forwardOne(t, c, vecmath.Vec{1, 2, 3, 4})
	want := []float64{3, 5, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("conv out %v, want %v", out, want)
		}
	}
}

// Finite-difference check of the conv layer's batched gradients at
// stride 1 and at stride 2, where some inputs fall between windows.
func TestConv1DGradientNumerically(t *testing.T) {
	rng := newRNG()
	for _, stride := range []int{1, 2} {
		c, err := NewConv1D(2, 9, 3, 3, stride, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkGradients(t, "conv", c, randMatrix(3, 18, rng), rng)
	}
}

// Finite-difference check of the compressor's encoder stack as one
// network: conv → relu → pool → dense → tanh.
func TestEncoderStackGradientNumerically(t *testing.T) {
	rng := newRNG()
	conv, err := NewConv1D(3, 12, 4, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool1D(4, conv.OutLen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewDense(4*pool.OutLen(), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(36, conv, &ReLU{}, pool, head, &Tanh{})
	if err != nil {
		t.Fatal(err)
	}
	checkGradients(t, "encoder", net, randMatrix(4, 36, rng), rng)
}

func TestMaxPool(t *testing.T) {
	if _, err := NewMaxPool1D(1, 4, 5); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	p, err := NewMaxPool1D(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := forwardOne(t, p, []float64{1, 3, 2, 2, 5, 4, 0, 7})
	want := []float64{3, 2, 5, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool out %v, want %v", out, want)
		}
	}
	ones := vecmath.MustMatrix(1, 4)
	copy(ones.Data, []float64{1, 1, 1, 1})
	g, err := p.BackwardBatch(ones)
	if err != nil {
		t.Fatal(err)
	}
	// Ties go to the first element of the window.
	wantG := []float64{0, 1, 1, 0, 1, 0, 0, 1}
	for i := range wantG {
		if g.Data[i] != wantG[i] {
			t.Fatalf("pool grad %v, want %v", g.Data, wantG)
		}
	}
	if _, err := p.ForwardBatch(vecmath.MustMatrix(1, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestNetworkValidation(t *testing.T) {
	rng := newRNG()
	if _, err := NewNetwork(4); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	d1, _ := NewDense(4, 8, rng)
	d2, _ := NewDense(9, 2, rng) // mismatched
	if _, err := NewNetwork(4, d1, d2); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// TestNetworkLearnsXOR trains full-batch on the four XOR points
// through ForwardBatch/BackwardBatch and Adam, then checks the fit one
// point at a time.
func TestNetworkLearnsXOR(t *testing.T) {
	rng := newRNG()
	d1, err := NewDense(2, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(2, d1, &Tanh{}, d2)
	if err != nil {
		t.Fatal(err)
	}
	x := vecmath.MustMatrix(4, 2)
	copy(x.Data, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	targets := []float64{0, 1, 1, 0}
	grad := vecmath.MustMatrix(4, 1)
	opt := NewAdam(0.05)
	for step := 0; step < 2000; step++ {
		out, ferr := net.ForwardBatch(x)
		if ferr != nil {
			t.Fatal(ferr)
		}
		for r := 0; r < 4; r++ {
			if _, lerr := MSELossInto(grad.Row(r), out.Row(r), targets[r:r+1]); lerr != nil {
				t.Fatal(lerr)
			}
		}
		net.ZeroGrads()
		if berr := net.BackwardBatchParams(grad); berr != nil {
			t.Fatal(berr)
		}
		if serr := opt.Step(net.Params()); serr != nil {
			t.Fatal(serr)
		}
	}
	for r := 0; r < 4; r++ {
		out := forwardOne(t, net, x.Row(r))
		if math.Abs(out[0]-targets[r]) > 0.2 {
			t.Fatalf("XOR not learned: in=%v out=%v want %v", x.Row(r), out[0], targets[r])
		}
	}
}

func TestAdamDecreasesLoss(t *testing.T) {
	rng := newRNG()
	d, err := NewDense(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(3, d)
	if err != nil {
		t.Fatal(err)
	}
	x := vecmath.MustMatrix(1, 3)
	copy(x.Data, []float64{1, 2, 3})
	target := vecmath.Vec{5}
	grad := vecmath.MustMatrix(1, 1)
	opt := NewAdam(0.01)
	var first, last float64
	for i := 0; i < 500; i++ {
		out, ferr := net.ForwardBatch(x)
		if ferr != nil {
			t.Fatal(ferr)
		}
		loss, lerr := MSELossInto(grad.Row(0), out.Row(0), target)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if i == 0 {
			first = loss
		}
		last = loss
		net.ZeroGrads()
		if berr := net.BackwardBatchParams(grad); berr != nil {
			t.Fatal(berr)
		}
		if serr := opt.Step(net.Params()); serr != nil {
			t.Fatal(serr)
		}
	}
	if last >= first || last > 1e-4 {
		t.Fatalf("adam did not converge: first %v last %v", first, last)
	}
}

func TestHuberLoss(t *testing.T) {
	g := make(vecmath.Vec, 1)
	if _, err := HuberLossInto(g, vecmath.Vec{1}, vecmath.Vec{1}, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := HuberLossInto(nil, nil, nil, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := HuberLossInto(make(vecmath.Vec, 2), vecmath.Vec{1}, vecmath.Vec{1}, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("grad length: want ErrShape, got %v", err)
	}
	// Inside the quadratic zone Huber == MSE.
	gh, gm := make(vecmath.Vec, 1), make(vecmath.Vec, 1)
	lh, err := HuberLossInto(gh, vecmath.Vec{0.5}, vecmath.Vec{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := MSELossInto(gm, vecmath.Vec{0.5}, vecmath.Vec{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lh-lm) > 1e-12 || math.Abs(gh[0]-gm[0]) > 1e-12 {
		t.Fatalf("huber != mse in quadratic zone: %v vs %v", lh, lm)
	}
	// Outside: gradient saturates at ±delta/n.
	if _, err := HuberLossInto(g, vecmath.Vec{10}, vecmath.Vec{0}, 1); err != nil {
		t.Fatal(err)
	}
	if g[0] != 1 {
		t.Fatalf("saturated grad %v, want 1", g[0])
	}
	if _, err := HuberLossInto(g, vecmath.Vec{-10}, vecmath.Vec{0}, 1); err != nil {
		t.Fatal(err)
	}
	if g[0] != -1 {
		t.Fatalf("saturated grad %v, want -1", g[0])
	}
}

func TestClipGrads(t *testing.T) {
	g := []float64{3, 4} // norm 5
	params := []Param{{W: []float64{0, 0}, G: g}}
	norm := ClipGrads(params, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if math.Abs(math.Hypot(g[0], g[1])-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", math.Hypot(g[0], g[1]))
	}
	// Below threshold: untouched.
	g2 := []float64{0.1}
	ClipGrads([]Param{{W: []float64{0}, G: g2}}, 1)
	if g2[0] != 0.1 {
		t.Fatal("clip must not touch small grads")
	}
}

func TestDenseCopyWeightsFrom(t *testing.T) {
	rng := newRNG()
	a, _ := NewDense(3, 2, rng)
	b, _ := NewDense(3, 2, rng)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.w.Data {
		if a.w.Data[i] != b.w.Data[i] {
			t.Fatal("weights not copied")
		}
	}
	c, _ := NewDense(4, 2, rng)
	if err := c.CopyWeightsFrom(a); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestNetworkCNNPipelineShapes(t *testing.T) {
	rng := newRNG()
	conv, err := NewConv1D(4, 32, 8, 5, 1, rng) // out 8×28
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool1D(8, 28, 2) // out 8×14
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(8*14, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(4*32, conv, &ReLU{}, pool, dense)
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(3, 4*32, rng)
	if out := forwardOne(t, net, x.Row(0)); len(out) != 8 {
		t.Fatalf("pipeline out %d, want 8", len(out))
	}
	outB, err := net.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	if outB.Rows != 3 || outB.Cols != 8 {
		t.Fatalf("pipeline batch out %dx%d, want 3x8", outB.Rows, outB.Cols)
	}
	net.ZeroGrads()
	dx, err := net.BackwardBatch(randMatrix(3, 8, rng))
	if err != nil {
		t.Fatal(err)
	}
	if dx.Rows != 3 || dx.Cols != 4*32 {
		t.Fatalf("pipeline input grad %dx%d, want 3x%d", dx.Rows, dx.Cols, 4*32)
	}
}

// TestReLUBackwardMatchesBranchyLoop holds the masked ReLU backward to
// the branchy loop it replaced, bit for bit: a gradient passes where
// the cached output is positive, and is +0 elsewhere. Every pair of
// outputs and gradients from ±0, ±1, ±subnormal, ±Inf and NaN is
// checked; a NaN output, which ForwardBatch never caches, must zero
// the gradient like any output that is not positive.
func TestReLUBackwardMatchesBranchyLoop(t *testing.T) {
	sub := math.Float64frombits(1)
	vals := []float64{0, math.Copysign(0, -1), 1, -1, sub, -sub, math.Inf(1), math.Inf(-1), math.NaN()}
	n := len(vals) * len(vals)
	outs, grads := vecmath.MustMatrix(1, n), vecmath.MustMatrix(1, n)
	for i, o := range vals {
		for j, g := range vals {
			outs.Data[i*len(vals)+j], grads.Data[i*len(vals)+j] = o, g
		}
	}
	r := ReLU{bOut: outs}
	dx, err := r.BackwardBatch(grads)
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range grads.Data {
		want := 0.0
		if outs.Data[k] > 0 {
			want = g
		}
		if math.Float64bits(dx.Data[k]) != math.Float64bits(want) {
			t.Fatalf("output %v gradient %v: dx %v (bits %#x), want %v (bits %#x)",
				outs.Data[k], g, dx.Data[k], math.Float64bits(dx.Data[k]), want, math.Float64bits(want))
		}
	}
}
