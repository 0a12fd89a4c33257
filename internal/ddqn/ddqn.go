// Package ddqn implements the double deep Q-network that determines
// the multicast grouping number (paper §II-B1): the online network
// selects the argmax action while the periodically synchronized target
// network evaluates it, which removes the max-operator overestimation
// bias of vanilla DQN.
package ddqn

import (
	"errors"
	"fmt"
	"math/rand"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/nn"
	"dtmsvs/internal/vecmath"
)

// ErrConfig indicates an invalid agent configuration.
var ErrConfig = errors.New("ddqn: invalid config")

// Transition is one (s, a, r, s', done) experience tuple.
type Transition struct {
	State     vecmath.Vec
	Action    int
	Reward    float64
	NextState vecmath.Vec
	Done      bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with
// uniform sampling. Its storage is allocated by the first Add: an agent
// that never trains (a fixed-K run builds one all the same) never pays
// for it.
type ReplayBuffer struct {
	capacity int
	buf      []Transition
	next     int
	full     bool
}

// NewReplayBuffer returns an empty buffer with the given capacity.
func NewReplayBuffer(capacity int) (*ReplayBuffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("replay capacity %d: %w", capacity, ErrConfig)
	}
	return &ReplayBuffer{capacity: capacity}, nil
}

// Len returns the number of stored transitions.
func (r *ReplayBuffer) Len() int {
	if r.full {
		return r.capacity
	}
	return r.next
}

// Cap returns the buffer capacity.
func (r *ReplayBuffer) Cap() int { return r.capacity }

// Add stores a transition, evicting the oldest when full.
func (r *ReplayBuffer) Add(t Transition) {
	if r.buf == nil {
		r.buf = make([]Transition, r.capacity)
	}
	r.buf[r.next] = t
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.full = true
	}
}

// SampleInto fills dst with uniform-with-replacement draws without
// allocating; the learner reuses one minibatch buffer across steps.
func (r *ReplayBuffer) SampleInto(dst []Transition, rng *rand.Rand) error {
	if r.Len() == 0 {
		return fmt.Errorf("sample from empty replay buffer: %w", ErrConfig)
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(r.Len())]
	}
	return nil
}

// Config parameterizes the agent.
type Config struct {
	// StateDim is the observation width.
	StateDim int
	// NumActions is the size of the discrete action set.
	NumActions int
	// Hidden is the width of the two hidden layers (default 64).
	Hidden int
	// Gamma is the discount factor (default 0.95).
	Gamma float64
	// LearningRate for Adam (default 1e-3).
	LearningRate float64
	// EpsStart/EpsEnd/EpsDecay control ε-greedy exploration:
	// ε decays multiplicatively by EpsDecay each Step from EpsStart
	// toward EpsEnd. Defaults: 1.0 / 0.05 / 0.995.
	EpsStart, EpsEnd, EpsDecay float64
	// BatchSize for replay sampling (default 32).
	BatchSize int
	// ReplayCapacity (default 4096).
	ReplayCapacity int
	// TargetSync is the number of learn steps between target-network
	// synchronizations (default 100).
	TargetSync int
	// WarmUp is the minimum buffered transitions before learning
	// begins (default BatchSize).
	WarmUp int
	// Vanilla disables the double-Q decoupling: the target network
	// both selects and evaluates the next action (classic DQN).
	// Exists for the overestimation ablation; the paper's scheme
	// keeps it false.
	Vanilla bool
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-3
	}
	if c.EpsStart == 0 {
		c.EpsStart = 1.0
	}
	if c.EpsEnd == 0 {
		c.EpsEnd = 0.05
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 0.995
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 4096
	}
	if c.TargetSync == 0 {
		c.TargetSync = 100
	}
	if c.WarmUp == 0 {
		c.WarmUp = c.BatchSize
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case c.StateDim <= 0:
		return fmt.Errorf("statedim=%d: %w", c.StateDim, ErrConfig)
	case c.NumActions <= 1:
		return fmt.Errorf("numactions=%d: %w", c.NumActions, ErrConfig)
	case d.Gamma < 0 || d.Gamma >= 1:
		return fmt.Errorf("gamma=%v: %w", d.Gamma, ErrConfig)
	case d.EpsDecay <= 0 || d.EpsDecay > 1:
		return fmt.Errorf("epsdecay=%v: %w", d.EpsDecay, ErrConfig)
	case d.EpsEnd > d.EpsStart:
		return fmt.Errorf("epsend %v > epsstart %v: %w", d.EpsEnd, d.EpsStart, ErrConfig)
	}
	return nil
}

// qnet is a 2-hidden-layer MLP Q-function with weight-copy support.
type qnet struct {
	l1, l2, l3 *nn.Dense
	net        *nn.Network
}

func newQNet(stateDim, hidden, actions int, rng *rand.Rand) (*qnet, error) {
	l1, err := nn.NewDense(stateDim, hidden, rng)
	if err != nil {
		return nil, err
	}
	l2, err := nn.NewDense(hidden, hidden, rng)
	if err != nil {
		return nil, err
	}
	l3, err := nn.NewDense(hidden, actions, rng)
	if err != nil {
		return nil, err
	}
	net, err := nn.NewNetwork(stateDim, l1, &nn.ReLU{}, l2, &nn.ReLU{}, l3)
	if err != nil {
		return nil, err
	}
	return &qnet{l1: l1, l2: l2, l3: l3, net: net}, nil
}

func (q *qnet) copyFrom(src *qnet) error {
	if err := q.l1.CopyWeightsFrom(src.l1); err != nil {
		return err
	}
	if err := q.l2.CopyWeightsFrom(src.l2); err != nil {
		return err
	}
	return q.l3.CopyWeightsFrom(src.l3)
}

// Agent is a double-DQN learner over a discrete action space.
type Agent struct {
	cfg    Config
	online *qnet
	target *qnet
	opt    *nn.Adam
	replay *ReplayBuffer
	rng    *rand.Rand

	eps        float64
	learnSteps int

	// Minibatch scratch, allocated once in New so Learn and Greedy run
	// with zero steady-state allocations: the sampled batch, the
	// stacked current- and next-state matrices, the per-sample TD
	// targets, the batched loss gradient, the per-row target scratch
	// and Greedy's one-row state matrix. The hidden activations and
	// batched Q outputs live inside the layers (nn batch scratch).
	batch    []Transition
	stateX   *vecmath.Matrix
	curX     *vecmath.Matrix
	nextX    *vecmath.Matrix
	gradB    *vecmath.Matrix
	tdTarget vecmath.Vec
	tgtBuf   vecmath.Vec
	params   []nn.Param
}

// New builds an agent. The rng drives weight init, exploration and
// replay sampling, so a fixed seed gives fully reproducible training.
func New(cfg Config, rng *rand.Rand) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	online, err := newQNet(c.StateDim, c.Hidden, c.NumActions, rng)
	if err != nil {
		return nil, fmt.Errorf("ddqn online net: %w", err)
	}
	target, err := newQNet(c.StateDim, c.Hidden, c.NumActions, rng)
	if err != nil {
		return nil, fmt.Errorf("ddqn target net: %w", err)
	}
	if err := target.copyFrom(online); err != nil {
		return nil, fmt.Errorf("ddqn target sync: %w", err)
	}
	replay, err := NewReplayBuffer(c.ReplayCapacity)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg: c, online: online, target: target,
		opt: nn.NewAdam(c.LearningRate), replay: replay,
		rng: rng, eps: c.EpsStart,
	}
	a.batch = make([]Transition, c.BatchSize)
	if a.stateX, err = vecmath.NewMatrix(1, c.StateDim); err != nil {
		return nil, err
	}
	if a.curX, err = vecmath.NewMatrix(c.BatchSize, c.StateDim); err != nil {
		return nil, err
	}
	if a.nextX, err = vecmath.NewMatrix(c.BatchSize, c.StateDim); err != nil {
		return nil, err
	}
	if a.gradB, err = vecmath.NewMatrix(c.BatchSize, c.NumActions); err != nil {
		return nil, err
	}
	a.tdTarget = make(vecmath.Vec, c.BatchSize)
	a.tgtBuf = make(vecmath.Vec, c.NumActions)
	a.params = a.online.net.Params()
	return a, nil
}

// SetGEMMPool does nothing: the networks' GEMMs always run the
// sequential vecmath kernels. It exists only so the benchmark harness
// compiles, and goes when that harness is next edited.
func (a *Agent) SetGEMMPool(*vecmath.GEMMPool) {}

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.eps }

// Act selects an action ε-greedily.
func (a *Agent) Act(state vecmath.Vec) (int, error) {
	if a.rng.Float64() < a.eps {
		return a.rng.Intn(a.cfg.NumActions), nil
	}
	return a.Greedy(state)
}

// Greedy selects the argmax action of the online network, which runs
// the state as a one-row ForwardBatch, the pass Learn trains. Every
// Learn starts with fresh forward passes, so a Greedy call between two
// Learn steps leaves training unchanged.
func (a *Agent) Greedy(state vecmath.Vec) (int, error) {
	if len(state) != a.cfg.StateDim {
		return 0, fmt.Errorf("state dim %d want %d: %w", len(state), a.cfg.StateDim, ErrConfig)
	}
	copy(a.stateX.Data, state)
	q, err := a.online.net.ForwardBatch(a.stateX)
	if err != nil {
		return 0, err
	}
	return vecmath.ArgMax(q.Data), nil
}

// Observe stores a transition and decays ε.
func (a *Agent) Observe(t Transition) error {
	if len(t.State) != a.cfg.StateDim || (!t.Done && len(t.NextState) != a.cfg.StateDim) {
		return fmt.Errorf("transition state dims %d/%d want %d: %w",
			len(t.State), len(t.NextState), a.cfg.StateDim, ErrConfig)
	}
	if t.Action < 0 || t.Action >= a.cfg.NumActions {
		return fmt.Errorf("transition action %d outside [0,%d): %w", t.Action, a.cfg.NumActions, ErrConfig)
	}
	a.replay.Add(t)
	a.eps = a.eps * a.cfg.EpsDecay
	if a.eps < a.cfg.EpsEnd {
		a.eps = a.cfg.EpsEnd
	}
	return nil
}

// Learn performs one double-DQN gradient step over a replay batch and
// returns the mean TD loss. It is a no-op (returns 0, false, nil)
// until WarmUp transitions are buffered.
//
// The whole minibatch goes through forward and backward in one pass:
// current and next states are stacked into matrices, every layer runs
// as a blocked GEMM, and the backward through each Dense layer is
// exactly dX = dY·W and dW = dYᵀ·X (the first layer skips dX: its
// input is the state batch). The GEMM kernels accumulate in
// ascending sample order, so the step is bit-identical to running the
// 32 samples one at a time — and it allocates nothing in steady
// state (all matrices are agent- or layer-owned scratch).
func (a *Agent) Learn() (loss float64, learned bool, err error) {
	if a.replay.Len() < a.cfg.WarmUp {
		return 0, false, nil
	}
	if err := a.replay.SampleInto(a.batch, a.rng); err != nil {
		return 0, false, err
	}
	anyNext := false
	for i, tr := range a.batch {
		row := a.nextX.Row(i)
		if tr.Done {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		copy(row, tr.NextState)
		anyNext = true
	}
	for i, tr := range a.batch {
		a.tdTarget[i] = tr.Reward
	}
	if anyNext {
		qNextT, ferr := a.target.net.ForwardBatch(a.nextX)
		if ferr != nil {
			return 0, false, ferr
		}
		var qNextO *vecmath.Matrix
		if !a.cfg.Vanilla {
			if qNextO, ferr = a.online.net.ForwardBatch(a.nextX); ferr != nil {
				return 0, false, ferr
			}
		}
		for i, tr := range a.batch {
			if tr.Done {
				continue
			}
			qNextTarget := qNextT.Row(i)
			best := vecmath.ArgMax(qNextTarget)
			if !a.cfg.Vanilla {
				// Double-DQN: the online net picks the action, the
				// target net evaluates it — removing the max-operator
				// overestimation bias.
				best = vecmath.ArgMax(qNextO.Row(i))
			}
			a.tdTarget[i] += a.cfg.Gamma * qNextTarget[best]
		}
	}
	for i, tr := range a.batch {
		copy(a.curX.Row(i), tr.State)
	}
	// The current-state batch forward overwrites the online net's
	// batch scratch (qNextO above), which is why the TD targets were
	// extracted first.
	qCur, ferr := a.online.net.ForwardBatch(a.curX)
	if ferr != nil {
		return 0, false, ferr
	}
	a.online.net.ZeroGrads()
	var total float64
	for i, tr := range a.batch {
		q := qCur.Row(i)
		copy(a.tgtBuf, q)
		a.tgtBuf[tr.Action] = a.tdTarget[i]
		l, lerr := nn.HuberLossInto(a.gradB.Row(i), q, a.tgtBuf, 1)
		if lerr != nil {
			return 0, false, lerr
		}
		total += l
	}
	if berr := a.online.net.BackwardBatchParams(a.gradB); berr != nil {
		return 0, false, berr
	}
	params := a.params
	// Average the accumulated gradients over the batch.
	inv := 1 / float64(len(a.batch))
	for _, p := range params {
		for j := range p.G {
			p.G[j] *= inv
		}
	}
	nn.ClipGrads(params, 10)
	if serr := a.opt.Step(params); serr != nil {
		return 0, false, serr
	}
	a.learnSteps++
	if a.learnSteps%a.cfg.TargetSync == 0 {
		if cerr := a.target.copyFrom(a.online); cerr != nil {
			return 0, false, cerr
		}
	}
	return total / float64(len(a.batch)), true, nil
}

// EncodeState appends the online network's weights to a checkpoint
// section (the target network is re-synchronized on decode).
func (a *Agent) EncodeState(e *checkpoint.Enc) { a.online.net.EncodeWeights(e) }

// DecodeState overwrites the online network's weights with bytes
// EncodeState wrote on an agent of the same Config, and synchronizes
// the target network to them. Weights of another shape are
// checkpoint.ErrCorrupt.
func (a *Agent) DecodeState(d *checkpoint.Dec) error {
	if err := a.online.net.DecodeWeights(d); err != nil {
		return fmt.Errorf("online net: %w", err)
	}
	if err := a.target.copyFrom(a.online); err != nil {
		return fmt.Errorf("target sync: %w", err)
	}
	return nil
}

// Env is a discrete-action episodic environment the agent can train
// against (used by Train and by the grouping package's K-selection
// MDP).
type Env interface {
	// Reset starts a new episode and returns the initial state.
	Reset() (vecmath.Vec, error)
	// Step applies an action and returns the next state, the reward
	// and whether the episode ended.
	Step(action int) (next vecmath.Vec, reward float64, done bool, err error)
}

// Train runs the agent against env for the given number of episodes
// (bounded by maxSteps per episode) and returns per-episode returns.
func (a *Agent) Train(env Env, episodes, maxSteps int) ([]float64, error) {
	if episodes <= 0 || maxSteps <= 0 {
		return nil, fmt.Errorf("train episodes=%d maxsteps=%d: %w", episodes, maxSteps, ErrConfig)
	}
	returns := make([]float64, 0, episodes)
	for ep := 0; ep < episodes; ep++ {
		state, err := env.Reset()
		if err != nil {
			return returns, fmt.Errorf("episode %d reset: %w", ep, err)
		}
		var total float64
		for step := 0; step < maxSteps; step++ {
			action, aerr := a.Act(state)
			if aerr != nil {
				return returns, aerr
			}
			next, reward, done, serr := env.Step(action)
			if serr != nil {
				return returns, fmt.Errorf("episode %d step %d: %w", ep, step, serr)
			}
			total += reward
			tr := Transition{State: state, Action: action, Reward: reward, NextState: next, Done: done}
			if oerr := a.Observe(tr); oerr != nil {
				return returns, oerr
			}
			if _, _, lerr := a.Learn(); lerr != nil {
				return returns, lerr
			}
			if done {
				break
			}
			state = next
		}
		returns = append(returns, total)
	}
	return returns, nil
}
