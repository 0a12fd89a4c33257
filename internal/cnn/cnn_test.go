package cnn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/nn"
	"dtmsvs/internal/vecmath"
)

func testConfig() Config {
	return Config{Channels: 3, Window: 16, Filters: 4, Kernel: 3, Pool: 2, CodeDim: 4}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero channels", func(c *Config) { c.Channels = 0 }},
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"zero filters", func(c *Config) { c.Filters = 0 }},
		{"kernel too wide", func(c *Config) { c.Kernel = 99 }},
		{"pool too wide", func(c *Config) { c.Pool = 99 }},
		{"zero pool", func(c *Config) { c.Pool = 0 }},
		{"zero codedim", func(c *Config) { c.CodeDim = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	cfg.CodeDim = 0
	if _, err := New(cfg, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// encode stacks the windows one to a row and returns the EncodeInto
// code of each.
func encode(t *testing.T, c *Compressor, windows ...vecmath.Vec) []vecmath.Vec {
	t.Helper()
	x, dst := vecmath.MustMatrix(len(windows), c.InputDim()), &vecmath.Matrix{}
	for i, w := range windows {
		copy(x.Row(i), w)
	}
	if err := c.EncodeInto(dst, x); err != nil {
		t.Fatal(err)
	}
	codes := make([]vecmath.Vec, len(windows))
	for i := range codes {
		codes[i] = dst.Row(i)
	}
	return codes
}

// encodeOne encodes w alone.
func encodeOne(t *testing.T, c *Compressor, w vecmath.Vec) vecmath.Vec {
	t.Helper()
	return encode(t, c, w)[0]
}

func TestEncodeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.InputDim() != 48 {
		t.Fatalf("InputDim = %d", c.InputDim())
	}
	w := make(vecmath.Vec, 48)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	code := encodeOne(t, c, w)
	if len(code) != 4 {
		t.Fatalf("code len %d", len(code))
	}
	// Tanh head bounds the code.
	for _, v := range code {
		if v < -1 || v > 1 {
			t.Fatalf("code value %v outside [-1,1]", v)
		}
	}
	if err := c.EncodeInto(&vecmath.Matrix{}, vecmath.MustMatrix(1, 2)); !errors.Is(err, nn.ErrShape) {
		t.Fatalf("want nn.ErrShape, got %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vecmath.Vec, c.InputDim())
	for i := range w {
		w[i] = math.Sin(float64(i))
	}
	a, b := encodeOne(t, c, w), encodeOne(t, c, w)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encode must be deterministic")
		}
	}
}

// TestEncodeBatch: a batch of windows stacked one to a row encodes to
// one code row per window, and a batch whose rows are the wrong width
// is refused.
func TestEncodeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([]vecmath.Vec, 5)
	for i := range windows {
		w := make(vecmath.Vec, c.InputDim())
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		windows[i] = w
	}
	codes := encode(t, c, windows...)
	if len(codes) != 5 {
		t.Fatalf("batch len %d", len(codes))
	}
	for i, code := range codes {
		if len(code) != c.Config().CodeDim {
			t.Fatalf("window %d: code len %d, want %d", i, len(code), c.Config().CodeDim)
		}
	}
	if err := c.EncodeInto(&vecmath.Matrix{}, vecmath.MustMatrix(5, c.InputDim()-1)); !errors.Is(err, nn.ErrShape) {
		t.Fatalf("want nn.ErrShape, got %v", err)
	}
}

// TestEncodeBatchChunkInvariant: EncodeInto encodes a stack of windows
// in one pass, and every row's code must equal that window's
// one-window encode bit for bit, whatever the stack's height against
// Config.Batch, a height that is not a multiple of it included. Once
// the layer scratch has grown, EncodeInto allocates nothing.
func TestEncodeBatchChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, batch := range []int{1, 8} {
		cfg := testConfig()
		cfg.Batch = batch
		c, err := New(cfg, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 7, 8, 9, 61} {
			x, dst := vecmath.MustMatrix(n, c.InputDim()), &vecmath.Matrix{}
			x.FillRandUniform(rng, 2)
			if err := c.EncodeInto(dst, x); err != nil {
				t.Fatal(err)
			}
			if dst.Rows != n || dst.Cols != cfg.CodeDim {
				t.Fatalf("batch %d n %d: codes %dx%d, want %dx%d", batch, n, dst.Rows, dst.Cols, n, cfg.CodeDim)
			}
			got := dst.Clone()
			for i := range n {
				want := encodeOne(t, c, x.Row(i))
				for j, v := range want {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(v) {
						t.Fatalf("batch %d n %d window %d code %d: stacked %v, one-window %v",
							batch, n, i, j, got.At(i, j), v)
					}
				}
			}
			if err := c.EncodeInto(dst, x); err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(20, func() {
				if err := c.EncodeInto(dst, x); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("batch %d: EncodeInto of %d windows allocates %v times, want 0", batch, n, a)
			}
		}
	}
}

func TestFitReducesReconstructionLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig()
	cfg.LearningRate = 3e-3
	c, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Structured signals: two latent prototypes plus noise, the kind
	// of low-rank time series a UDT window has.
	windows := make([]vecmath.Vec, 24)
	for i := range windows {
		w := make(vecmath.Vec, c.InputDim())
		phase := float64(i%2) * math.Pi
		for j := range w {
			w[j] = 0.7*math.Sin(float64(j)/3+phase) + 0.05*rng.NormFloat64()
		}
		windows[i] = w
	}
	firstLoss, err := c.Fit(windows, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	finalLoss, err := c.Fit(windows, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if finalLoss >= firstLoss {
		t.Fatalf("reconstruction loss did not drop: first %v final %v", firstLoss, finalLoss)
	}
	if finalLoss > 0.05 {
		t.Fatalf("final loss too high: %v", finalLoss)
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fit(nil, 1, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	w := make(vecmath.Vec, c.InputDim())
	if _, err := c.Fit([]vecmath.Vec{w}, 0, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if _, err := c.Fit([]vecmath.Vec{w, make(vecmath.Vec, 3)}, 1, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("short window: want ErrConfig, got %v", err)
	}
}

func TestReconstructShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := vecmath.MustMatrix(1, c.InputDim())
	code, err := c.encoder.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := c.decoder.ForwardBatch(code)
	if err != nil {
		t.Fatal(err)
	}
	if recon.Rows != 1 || recon.Cols != c.InputDim() {
		t.Fatalf("recon %dx%d want 1x%d", recon.Rows, recon.Cols, c.InputDim())
	}
}

// Similar inputs should map to nearby codes after training — the
// property the clustering stage depends on.
func TestCodesSeparateClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig()
	c, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(amp float64, n int) []vecmath.Vec {
		ws := make([]vecmath.Vec, n)
		for i := range ws {
			w := make(vecmath.Vec, c.InputDim())
			for j := range w {
				w[j] = amp*math.Sin(float64(j)/2) + 0.02*rng.NormFloat64()
			}
			ws[i] = w
		}
		return ws
	}
	classA := mk(0.9, 12)
	classB := mk(-0.9, 12)
	all := append(append([]vecmath.Vec{}, classA...), classB...)
	if _, err := c.Fit(all, 40, rng); err != nil {
		t.Fatal(err)
	}
	codeA, codeB := encode(t, c, classA...), encode(t, c, classB...)
	centroid := func(cs []vecmath.Vec) vecmath.Vec {
		out := make(vecmath.Vec, len(cs[0]))
		for _, v := range cs {
			for i := range v {
				out[i] += v[i]
			}
		}
		for i := range out {
			out[i] /= float64(len(cs))
		}
		return out
	}
	ca, cb := centroid(codeA), centroid(codeB)
	between, err := vecmath.Dist(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	var within float64
	for _, v := range codeA {
		d, derr := vecmath.Dist(v, ca)
		if derr != nil {
			t.Fatal(derr)
		}
		within += d
	}
	within /= float64(len(codeA))
	if between <= 2*within {
		t.Fatalf("codes not separated: between %v within %v", between, within)
	}
}

// TestEncodeDecodeState: trained weights decode into a second
// compressor of the same Config, which then encodes every window to
// the same code; weights of another architecture are refused.
func TestEncodeDecodeState(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	w := make(vecmath.Vec, a.InputDim())
	for i := range w {
		w[i] = math.Sin(float64(i) / 2)
	}
	if _, err := a.Fit([]vecmath.Vec{w}, 1, rng); err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDec(stateBytes(a))
	if err := b.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ca, cb := encodeOne(t, a, w), encodeOne(t, b, w)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("codes differ after state transfer")
		}
	}
	// Mismatched architecture must be rejected.
	small := testConfig()
	small.CodeDim = 2
	c, err := New(small, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeState(checkpoint.NewDec(stateBytes(a))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("mismatched architecture: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// stateBytes returns the compressor's weights in the checkpoint
// encoding, which carries their bit patterns.
func stateBytes(c *Compressor) []byte {
	var e checkpoint.Enc
	c.EncodeState(&e)
	return e.Bytes()
}

// fullBackward hides a layer's parameter-only backward: a network
// whose first layer is wrapped in it runs that layer's full
// BackwardBatch and drops the input gradient.
type fullBackward struct{ nn.Layer }

// adamBits flattens an Adam optimizer's step count and moment
// estimates to their bit patterns.
func adamBits(t *testing.T, opt *nn.Adam) []uint64 {
	t.Helper()
	v := reflect.ValueOf(opt).Elem()
	step := v.FieldByName("t")
	if !step.IsValid() {
		t.Fatal("nn.Adam has no step counter t")
	}
	bits := []uint64{uint64(step.Int())}
	for _, name := range []string{"m", "v"} {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("nn.Adam has no moment field %s", name)
		}
		for i := 0; i < f.Len(); i++ {
			for j, row := 0, f.Index(i); j < row.Len(); j++ {
				bits = append(bits, math.Float64bits(row.Index(j).Float()))
			}
		}
	}
	return bits
}

// TestFirstLayerGradSkipBitIdentical: the fit's encoder backward stops
// at the conv layer's parameter gradients. Against a reference whose
// conv runs the full BackwardBatch and drops dx, every weight and every
// Adam moment is bit-identical after several epochs of steps.
func TestFirstLayerGradSkipBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = 4
	fast, err := New(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	layers := append([]nn.Layer(nil), ref.encoder.Layers()...)
	layers[0] = fullBackward{layers[0]}
	if ref.encoder, err = nn.NewNetwork(ref.inDim, layers...); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	windows := make([]vecmath.Vec, 30)
	for i := range windows {
		windows[i] = make(vecmath.Vec, fast.InputDim())
		for j := range windows[i] {
			windows[i][j] = math.Sin(float64(j)/3+float64(i%3)) + 0.1*rng.NormFloat64()
		}
	}
	lf, err := fast.Fit(windows, 3, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	lr, err := ref.Fit(windows, 3, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lf) != math.Float64bits(lr) {
		t.Fatalf("final loss %v, reference %v", lf, lr)
	}
	if !bytes.Equal(stateBytes(fast), stateBytes(ref)) {
		t.Fatal("weights differ from the full-backward reference")
	}
	if !slices.Equal(adamBits(t, fast.opt), adamBits(t, ref.opt)) {
		t.Fatal("adam state differs from the full-backward reference")
	}
}

// TestFitStopsOnPlateau pins Fit's stop rule: a fit whose loss cannot
// move stops at the warm-up floor, a fit that keeps improving by more
// than the tolerance runs its whole cap, no fit runs past its cap, and
// a repeat of the same fit runs the same epochs to the same weights.
func TestFitStopsOnPlateau(t *testing.T) {
	windows := func() []vecmath.Vec {
		rng := rand.New(rand.NewSource(50))
		ws := make([]vecmath.Vec, 48)
		for i := range ws {
			w := make(vecmath.Vec, 48)
			phase := float64(i%4) * math.Pi / 2
			for j := range w {
				w[j] = 0.7*math.Sin(float64(j)/3+phase) + 0.05*rng.NormFloat64()
			}
			ws[i] = w
		}
		return ws
	}()
	fit := func(lr float64, epochs int) (*Compressor, float64) {
		t.Helper()
		cfg := testConfig()
		cfg.LearningRate = lr
		c, err := New(cfg, rand.New(rand.NewSource(51)))
		if err != nil {
			t.Fatal(err)
		}
		loss, err := c.Fit(windows, epochs, rand.New(rand.NewSource(52)))
		if err != nil {
			t.Fatal(err)
		}
		return c, loss
	}
	// A learning rate too small to move the loss: a plateau from the
	// first epoch on.
	if c, _ := fit(1e-12, 50); c.Epochs() != fitFloorEpochs {
		t.Fatalf("plateaued fit ran %d epochs, want the floor %d", c.Epochs(), fitFloorEpochs)
	}
	const improvingCap = 12
	if c, _ := fit(3e-3, improvingCap); c.Epochs() != improvingCap {
		t.Fatalf("improving fit ran %d epochs, want its cap %d", c.Epochs(), improvingCap)
	}
	for _, cap := range []int{1, 3, fitFloorEpochs, 30} {
		for _, lr := range []float64{1e-12, 3e-3} {
			if c, _ := fit(lr, cap); c.Epochs() > cap || (cap <= fitFloorEpochs && c.Epochs() != cap) {
				t.Fatalf("lr %g cap %d: fit ran %d epochs", lr, cap, c.Epochs())
			}
		}
	}
	a, la := fit(3e-3, 40)
	b, lb := fit(3e-3, 40)
	if a.Epochs() != b.Epochs() || math.Float64bits(la) != math.Float64bits(lb) {
		t.Fatalf("repeat fit: %d epochs to loss %v, then %d epochs to loss %v", a.Epochs(), la, b.Epochs(), lb)
	}
	if a.Epochs() == 40 {
		t.Fatal("a 40-epoch fit of a small set should plateau before its cap")
	}
	if !bytes.Equal(stateBytes(a), stateBytes(b)) {
		t.Fatal("repeat fit reached different weights")
	}
}
