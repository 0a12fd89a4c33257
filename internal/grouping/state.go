// This file encodes the builder's trained-model state for session
// checkpoints: the CNN autoencoder weights (when enabled) and the
// DDQN K-selector's online-network weights. The builder's random
// stream is owned by the engine (which counts and restores it), and
// training is atomic within the session prologue, so weights are the
// only builder state a boundary checkpoint needs.

package grouping

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// EncodeState appends the builder's trained weights to a checkpoint
// section straight from the live networks: whether a compressor is
// present, its encoder and decoder weights if so, then the agent's.
func (b *Builder) EncodeState(e *checkpoint.Enc) {
	e.Bool(b.compressor != nil)
	if b.compressor != nil {
		b.compressor.EncodeState(e)
	}
	b.agent.EncodeState(e)
}

// DecodeState overwrites the builder's trained weights with bytes
// EncodeState wrote on a builder of the same configuration. A
// compressor flag that disagrees with this builder's configuration,
// or weights of another shape, are checkpoint.ErrCorrupt.
func (b *Builder) DecodeState(d *checkpoint.Dec) error {
	hasCompressor := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasCompressor != (b.compressor != nil) {
		return fmt.Errorf("builder state with compressor %v, configuration with compressor %v: %w",
			hasCompressor, b.compressor != nil, checkpoint.ErrCorrupt)
	}
	if b.compressor != nil {
		if err := b.compressor.DecodeState(d); err != nil {
			return fmt.Errorf("compressor: %w", err)
		}
	}
	if err := b.agent.DecodeState(d); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	return nil
}
