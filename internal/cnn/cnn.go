// Package cnn implements the paper's 1D-CNN compressor for time-series
// UDT data (§II-B1): a convolutional autoencoder that maps a window of
// F feature channels over T time steps to a low-dimensional code. The
// encoder half is what the grouping pipeline uses; the decoder exists
// so the model can be trained with a reconstruction objective.
package cnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/nn"
	"dtmsvs/internal/vecmath"
)

// ErrConfig indicates an invalid compressor configuration.
var ErrConfig = errors.New("cnn: invalid config")

// Config describes the autoencoder architecture.
type Config struct {
	// Channels is the number of feature channels F in a UDT window.
	Channels int
	// Window is the number of time steps T per channel.
	Window int
	// Filters is the number of conv filters in the encoder.
	Filters int
	// Kernel is the conv kernel width.
	Kernel int
	// Pool is the max-pool window after the conv.
	Pool int
	// CodeDim is the size of the compressed representation.
	CodeDim int
	// LearningRate for Adam. When zero it defaults to 1e-3·√Batch
	// (≈2.83e-3 at the default Batch of 8) — see the Batch field for
	// the scaling rationale; set it explicitly for a fixed rate.
	LearningRate float64
	// Batch is the Fit minibatch size (default 8): each optimizer
	// step averages the reconstruction gradient over Batch windows
	// pushed through the network as one blocked-GEMM pass. 1 recovers
	// per-window SGD; the zero-value LearningRate default scales with
	// √Batch, so set Batch: 1 (or an explicit LearningRate) for
	// classic 1e-3 per-window SGD.
	Batch int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.Window <= 0:
		return fmt.Errorf("channels=%d window=%d: %w", c.Channels, c.Window, ErrConfig)
	case c.Filters <= 0 || c.Kernel <= 0 || c.Kernel > c.Window:
		return fmt.Errorf("filters=%d kernel=%d window=%d: %w", c.Filters, c.Kernel, c.Window, ErrConfig)
	case c.Pool <= 0 || c.Pool > c.Window-c.Kernel+1:
		return fmt.Errorf("pool=%d convlen=%d: %w", c.Pool, c.Window-c.Kernel+1, ErrConfig)
	case c.CodeDim <= 0:
		return fmt.Errorf("codedim=%d: %w", c.CodeDim, ErrConfig)
	case c.Batch < 0:
		return fmt.Errorf("batch=%d: %w", c.Batch, ErrConfig)
	}
	return nil
}

// Compressor is a trainable 1D-CNN autoencoder.
type Compressor struct {
	cfg     Config
	encoder *nn.Network
	decoder *nn.Network
	opt     *nn.Adam
	inDim   int

	// params is the joint parameter list, built lazily on the first
	// training step and reused so the fit loop stays allocation-free.
	params []nn.Param

	// Fit's minibatch scratch (grow-once): the stacked window batch
	// and the batched reconstruction gradient.
	// The per-layer activations live inside the layers (nn batch
	// scratch).
	xB, gradB *vecmath.Matrix

	// epochs is how many epochs the last Fit ran.
	epochs int
}

// New builds a compressor from the config with weights drawn from rng.
func New(cfg Config, rng *rand.Rand) (*Compressor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	lr := cfg.LearningRate
	if lr == 0 {
		// Square-root LR scaling: a minibatch step averages Batch
		// per-window gradients, so the per-epoch step count drops by
		// Batch; scaling the default LR by √Batch keeps the epoch
		// budget roughly equivalent to per-window SGD at 1e-3.
		lr = 1e-3 * math.Sqrt(float64(cfg.Batch))
	}
	inDim := cfg.Channels * cfg.Window

	conv, err := nn.NewConv1D(cfg.Channels, cfg.Window, cfg.Filters, cfg.Kernel, 1, rng)
	if err != nil {
		return nil, fmt.Errorf("cnn encoder conv: %w", err)
	}
	convLen := conv.OutLen()
	pool, err := nn.NewMaxPool1D(cfg.Filters, convLen, cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("cnn encoder pool: %w", err)
	}
	pooled := cfg.Filters * pool.OutLen()
	encHead, err := nn.NewDense(pooled, cfg.CodeDim, rng)
	if err != nil {
		return nil, fmt.Errorf("cnn encoder head: %w", err)
	}
	encoder, err := nn.NewNetwork(inDim, conv, &nn.ReLU{}, pool, encHead, &nn.Tanh{})
	if err != nil {
		return nil, fmt.Errorf("cnn encoder: %w", err)
	}

	decHidden, err := nn.NewDense(cfg.CodeDim, pooled, rng)
	if err != nil {
		return nil, fmt.Errorf("cnn decoder hidden: %w", err)
	}
	decOut, err := nn.NewDense(pooled, inDim, rng)
	if err != nil {
		return nil, fmt.Errorf("cnn decoder out: %w", err)
	}
	decoder, err := nn.NewNetwork(cfg.CodeDim, decHidden, &nn.ReLU{}, decOut)
	if err != nil {
		return nil, fmt.Errorf("cnn decoder: %w", err)
	}

	return &Compressor{cfg: cfg, encoder: encoder, decoder: decoder, opt: nn.NewAdam(lr), inDim: inDim}, nil
}

// Config returns the compressor's configuration.
func (c *Compressor) Config() Config { return c.cfg }

// InputDim returns the flattened window size Channels×Window.
func (c *Compressor) InputDim() int { return c.inDim }

// EncodeInto writes the code of every row of x, one window per row,
// into the same row of dst, which it resizes to x.Rows × CodeDim: one
// encoder ForwardBatch, the pass Fit trains, so once the layer scratch
// has grown to x.Rows it allocates nothing. The scratch grows to the
// largest x seen, so callers with many windows pass a Config.Batch of
// them at a time. A row's code does not depend on the other rows of x:
// it equals the code of that window encoded alone, bit for bit.
func (c *Compressor) EncodeInto(dst, x *vecmath.Matrix) error {
	codes, err := c.encoder.ForwardBatch(x)
	if err != nil {
		return err
	}
	if err := dst.Resize(codes.Rows, codes.Cols); err != nil {
		return err
	}
	copy(dst.Data, codes.Data)
	return nil
}

// allParams lazily builds and caches the joint encoder+decoder
// parameter list shared by the clip and optimizer steps.
func (c *Compressor) allParams() []nn.Param {
	if c.params == nil {
		enc, dec := c.encoder.Params(), c.decoder.Params()
		c.params = make([]nn.Param, 0, len(enc)+len(dec))
		c.params = append(c.params, enc...)
		c.params = append(c.params, dec...)
	}
	return c.params
}

// trainOn is Fit's minibatch step over a stacked window batch: the
// whole batch runs through encoder and decoder as blocked GEMMs (the
// conv layer via an im2col window matrix), the gradient is averaged
// over the batch, and one optimizer step is applied. It returns the
// batch's mean loss. Steady-state it allocates nothing: the batch
// matrices are compressor-owned grow-once scratch.
func (c *Compressor) trainOn(x *vecmath.Matrix) (float64, error) {
	code, err := c.encoder.ForwardBatch(x)
	if err != nil {
		return 0, err
	}
	recon, err := c.decoder.ForwardBatch(code)
	if err != nil {
		return 0, err
	}
	if c.gradB == nil {
		c.gradB = &vecmath.Matrix{}
	}
	if err := c.gradB.Resize(recon.Rows, recon.Cols); err != nil {
		return 0, err
	}
	var loss float64
	for r := 0; r < recon.Rows; r++ {
		l, lerr := nn.MSELossInto(c.gradB.Row(r), recon.Row(r), x.Row(r))
		if lerr != nil {
			return 0, lerr
		}
		loss += l
	}
	// Average the gradient over the batch so one step has the same
	// scale as a per-window step on the mean loss.
	inv := 1 / float64(recon.Rows)
	vecmath.Scale(inv, c.gradB.Data)
	c.encoder.ZeroGrads()
	c.decoder.ZeroGrads()
	codeGrad, err := c.decoder.BackwardBatch(c.gradB)
	if err != nil {
		return 0, err
	}
	// The windows are data: the encoder needs no input gradient.
	if err := c.encoder.BackwardBatchParams(codeGrad); err != nil {
		return 0, err
	}
	nn.ClipGrads(c.allParams(), 5)
	if err := c.opt.Step(c.params); err != nil {
		return 0, err
	}
	return loss * inv, nil
}

// EncodeState appends the encoder's and then the decoder's weights to
// a checkpoint section (architecture comes from Config, which the
// caller persists separately).
func (c *Compressor) EncodeState(e *checkpoint.Enc) {
	c.encoder.EncodeWeights(e)
	c.decoder.EncodeWeights(e)
}

// DecodeState overwrites the weights with bytes EncodeState wrote on a
// compressor of the same Config; weights of another shape are
// checkpoint.ErrCorrupt.
func (c *Compressor) DecodeState(d *checkpoint.Dec) error {
	if err := c.encoder.DecodeWeights(d); err != nil {
		return fmt.Errorf("encoder: %w", err)
	}
	if err := c.decoder.DecodeWeights(d); err != nil {
		return fmt.Errorf("decoder: %w", err)
	}
	return nil
}

// Fit's stop rule, the warm-up-plus-tolerance shape of an incremental
// trainer. The first fitFloorEpochs epochs always run: on 500-window
// sets the epoch loss can stall for a few epochs at epochs 3–5 before
// it falls again at 2–5 % an epoch. After the floor, Fit stops after
// the first epoch whose mean loss is less than fitTolerance (relative)
// below the best epoch before it.
const (
	fitFloorEpochs = 8
	fitTolerance   = 0.01
)

// Fit trains for at most the given number of epochs over the window
// set, returning the mean reconstruction loss of the last epoch it
// ran. Each epoch shuffles the windows and walks them in minibatches
// of Config.Batch: one blocked-GEMM forward+backward and one optimizer
// step per batch instead of per window. The fit stops early on a
// plateau: after 8 epochs, the first epoch whose loss improves on the
// best earlier epoch by less than 1 % is the last. Epochs reports how
// many ran.
func (c *Compressor) Fit(windows []vecmath.Vec, epochs int, rng *rand.Rand) (float64, error) {
	if len(windows) == 0 {
		return 0, fmt.Errorf("fit with no windows: %w", ErrConfig)
	}
	if epochs <= 0 {
		return 0, fmt.Errorf("fit epochs=%d: %w", epochs, ErrConfig)
	}
	for i, w := range windows {
		if len(w) != c.inDim {
			return 0, fmt.Errorf("fit window %d size %d want %d: %w", i, len(w), c.inDim, ErrConfig)
		}
	}
	bs := c.cfg.Batch
	if bs > len(windows) {
		bs = len(windows)
	}
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}
	if c.xB == nil {
		c.xB = &vecmath.Matrix{}
	}
	c.epochs = 0
	last, best := 0.0, math.Inf(1)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			if err := c.xB.Resize(end-start, c.inDim); err != nil {
				return 0, err
			}
			for r, idx := range order[start:end] {
				copy(c.xB.Row(r), windows[idx])
			}
			loss, err := c.trainOn(c.xB)
			if err != nil {
				return 0, fmt.Errorf("epoch %d batch at %d: %w", e, start, err)
			}
			// Weight by batch size so the epoch mean matches the
			// per-window mean.
			sum += loss * float64(end-start)
		}
		last = sum / float64(len(windows))
		c.epochs = e + 1
		if c.epochs >= fitFloorEpochs && best-last < fitTolerance*best {
			break
		}
		best = min(best, last)
	}
	return last, nil
}

// Epochs returns how many epochs the last Fit ran: its cap, or fewer
// when the loss plateaued.
func (c *Compressor) Epochs() int { return c.epochs }
