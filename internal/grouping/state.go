// This file exports the builder's trained-model state for session
// checkpoint/restore: the CNN autoencoder weights (when enabled) and
// the DDQN K-selector's online-network weights. The builder's random
// stream is owned by the engine (which counts and restores it), and
// training is atomic within the session prologue, so weights are the
// only builder state a boundary checkpoint needs.

package grouping

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cnn"
	"dtmsvs/internal/nn"
)

// State is the serializable model state of a Builder.
type State struct {
	// Compressor holds the autoencoder weights; nil when the CNN is
	// disabled in the configuration.
	Compressor *cnn.State `json:"compressor,omitempty"`
	// Agent holds the DDQN online-network weights (the target net is
	// re-synchronized on load, matching ddqn.Agent.LoadState).
	Agent *nn.WeightState `json:"agent"`
}

// SaveState captures the builder's trained weights.
func (b *Builder) SaveState() *State {
	st := &State{Agent: b.agent.SaveState()}
	if b.compressor != nil {
		st.Compressor = b.compressor.SaveState()
	}
	return st
}

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

// LoadState restores weights saved from a builder with the same
// configuration.
func (b *Builder) LoadState(st *State) error {
	if st == nil || st.Agent == nil {
		return fmt.Errorf("nil builder state: %w", ErrConfig)
	}
	if b.compressor != nil {
		if st.Compressor == nil {
			return fmt.Errorf("builder state missing compressor weights: %w", ErrConfig)
		}
		if err := b.compressor.LoadState(st.Compressor); err != nil {
			return fmt.Errorf("compressor: %w", err)
		}
	}
	if err := b.agent.LoadState(st.Agent); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	return nil
}
