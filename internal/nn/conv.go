package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dtmsvs/internal/vecmath"
)

// Conv1D is a multi-channel 1-D convolution ("valid" padding). Input
// and output are flattened channel-major vectors:
//
//	in  = [c0 t0..tL-1, c1 t0..tL-1, ...]   (InCh × InLen)
//	out = [f0 t0..tO-1, f1 t0..tO-1, ...]   (Filters × outLen)
//
// where outLen = (InLen − Kernel)/Stride + 1.
type Conv1D struct {
	InCh, InLen    int
	Filters        int
	Kernel, Stride int

	// w[f][c] is the kernel of filter f over input channel c.
	w, gw [][]vecmath.Vec
	b, gb vecmath.Vec

	// Batched-training scratch (see batch.go): the im2col window
	// matrix, flattened weight/gradient views, the GEMM outputs and
	// the batch input-gradient — all grow-once layer-owned.
	xcol, wflat, wflatT, gwflat *vecmath.Matrix
	ycol, dycol, dxcol          *vecmath.Matrix
	bOut, bDx                   *vecmath.Matrix
}

// NewConv1D builds a conv layer with Xavier-style initialization.
func NewConv1D(inCh, inLen, filters, kernel, stride int, rng *rand.Rand) (*Conv1D, error) {
	if inCh <= 0 || inLen <= 0 || filters <= 0 || kernel <= 0 || stride <= 0 {
		return nil, fmt.Errorf("conv1d params ch=%d len=%d f=%d k=%d s=%d: %w",
			inCh, inLen, filters, kernel, stride, ErrShape)
	}
	if kernel > inLen {
		return nil, fmt.Errorf("conv1d kernel %d > input %d: %w", kernel, inLen, ErrShape)
	}
	fanIn := inCh * kernel
	fanOut := filters * kernel
	scale := math.Sqrt(6.0 / float64(fanIn+fanOut))
	w := make([][]vecmath.Vec, filters)
	gw := make([][]vecmath.Vec, filters)
	for f := 0; f < filters; f++ {
		w[f] = make([]vecmath.Vec, inCh)
		gw[f] = make([]vecmath.Vec, inCh)
		for c := 0; c < inCh; c++ {
			k := make(vecmath.Vec, kernel)
			for i := range k {
				k[i] = (rng.Float64()*2 - 1) * scale
			}
			w[f][c] = k
			gw[f][c] = make(vecmath.Vec, kernel)
		}
	}
	return &Conv1D{
		InCh: inCh, InLen: inLen, Filters: filters, Kernel: kernel, Stride: stride,
		w: w, gw: gw,
		b: make(vecmath.Vec, filters), gb: make(vecmath.Vec, filters),
	}, nil
}

var _ Layer = (*Conv1D)(nil)

// OutLen returns the temporal length of each output channel.
func (c *Conv1D) OutLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

// OutSize implements Layer.
func (c *Conv1D) OutSize(in int) (int, error) {
	if in != c.InCh*c.InLen {
		return 0, fmt.Errorf("conv1d outsize for %d want %d: %w", in, c.InCh*c.InLen, ErrShape)
	}
	return c.Filters * c.OutLen(), nil
}

// Params implements Layer.
func (c *Conv1D) Params() []Param {
	params := make([]Param, 0, c.Filters*c.InCh+1)
	for f := range c.w {
		for ch := range c.w[f] {
			params = append(params, Param{W: c.w[f][ch], G: c.gw[f][ch]})
		}
	}
	params = append(params, Param{W: c.b, G: c.gb})
	return params
}

// MaxPool1D downsamples each channel by taking the maximum over
// non-overlapping windows of the given size.
type MaxPool1D struct {
	Ch, InLen, Window int

	bArg      []int // batched argmax cache, row-major per sample
	bOut, bDx *vecmath.Matrix
}

// NewMaxPool1D validates the shape and returns the layer.
func NewMaxPool1D(ch, inLen, window int) (*MaxPool1D, error) {
	if ch <= 0 || inLen <= 0 || window <= 0 || window > inLen {
		return nil, fmt.Errorf("maxpool ch=%d len=%d w=%d: %w", ch, inLen, window, ErrShape)
	}
	return &MaxPool1D{Ch: ch, InLen: inLen, Window: window}, nil
}

var _ Layer = (*MaxPool1D)(nil)

// OutLen returns the pooled length per channel.
func (p *MaxPool1D) OutLen() int { return p.InLen / p.Window }

// OutSize implements Layer.
func (p *MaxPool1D) OutSize(in int) (int, error) {
	if in != p.Ch*p.InLen {
		return 0, fmt.Errorf("maxpool outsize for %d want %d: %w", in, p.Ch*p.InLen, ErrShape)
	}
	return p.Ch * p.OutLen(), nil
}

// Params implements Layer.
func (p *MaxPool1D) Params() []Param { return nil }
