package ddqn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/nn"
	"dtmsvs/internal/vecmath"
)

// qValues returns a copy of the online network's Q estimate for state.
func qValues(t *testing.T, a *Agent, state vecmath.Vec) vecmath.Vec {
	t.Helper()
	x := vecmath.MustMatrix(1, len(state))
	copy(x.Data, state)
	q, err := a.online.net.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	return vecmath.Clone(q.Data)
}

func testCfg() Config {
	return Config{StateDim: 2, NumActions: 3, Hidden: 16, BatchSize: 8, ReplayCapacity: 64, TargetSync: 10}
}

func TestReplayBuffer(t *testing.T) {
	if _, err := NewReplayBuffer(0); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	rb, err := NewReplayBuffer(3)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != 0 || rb.Cap() != 3 {
		t.Fatalf("len=%d cap=%d", rb.Len(), rb.Cap())
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := rb.Sample(1, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty sample: want ErrConfig, got %v", err)
	}
	for i := 0; i < 5; i++ {
		rb.Add(Transition{Reward: float64(i)})
	}
	if rb.Len() != 3 {
		t.Fatalf("ring len %d, want 3", rb.Len())
	}
	// Oldest entries (0,1) must have been evicted.
	batch, err := rb.Sample(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range batch {
		if tr.Reward < 2 {
			t.Fatalf("evicted transition %v still sampled", tr.Reward)
		}
	}
	if _, err := rb.Sample(0, rng); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// TestReplayBufferAllocatedOnFirstAdd pins the lazy storage: a new
// agent holds no transitions' worth of memory until it first observes
// one, and Cap reports the configured capacity throughout.
func TestReplayBufferAllocatedOnFirstAdd(t *testing.T) {
	a, err := New(testCfg(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rb := a.replay
	if rb.buf != nil || rb.Cap() != 64 || rb.Len() != 0 {
		t.Fatalf("new agent: storage %d, cap %d, len %d", len(rb.buf), rb.Cap(), rb.Len())
	}
	rb.Add(Transition{Reward: 1})
	if len(rb.buf) != 64 || rb.Cap() != 64 || rb.Len() != 1 {
		t.Fatalf("after one Add: storage %d, cap %d, len %d", len(rb.buf), rb.Cap(), rb.Len())
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"statedim", func(c *Config) { c.StateDim = 0 }},
		{"actions", func(c *Config) { c.NumActions = 1 }},
		{"gamma", func(c *Config) { c.Gamma = 1.5 }},
		{"epsdecay", func(c *Config) { c.EpsDecay = 2 }},
		{"eps order", func(c *Config) { c.EpsStart = 0.1; c.EpsEnd = 0.9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testCfg()
			tt.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAgentActBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, err := New(testCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	state := vecmath.Vec{0.1, -0.2}
	for i := 0; i < 200; i++ {
		act, aerr := a.Act(state)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if act < 0 || act >= 3 {
			t.Fatalf("action %d out of range", act)
		}
	}
	if _, err := a.Greedy(vecmath.Vec{1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestObserveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, err := New(testCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	good := Transition{State: vecmath.Vec{1, 2}, Action: 0, NextState: vecmath.Vec{1, 2}}
	if err := a.Observe(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Action = 7
	if err := a.Observe(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	bad = good
	bad.State = vecmath.Vec{1}
	if err := a.Observe(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	// Done transitions may omit NextState.
	terminal := Transition{State: vecmath.Vec{1, 2}, Action: 1, Done: true}
	if err := a.Observe(terminal); err != nil {
		t.Fatalf("terminal transition rejected: %v", err)
	}
}

func TestEpsilonDecays(t *testing.T) {
	cfg := testCfg()
	cfg.EpsStart = 1.0
	cfg.EpsEnd = 0.1
	cfg.EpsDecay = 0.5
	rng := rand.New(rand.NewSource(4))
	a, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := Transition{State: vecmath.Vec{0, 0}, Action: 0, NextState: vecmath.Vec{0, 0}}
	for i := 0; i < 10; i++ {
		if err := a.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	if a.Epsilon() != 0.1 {
		t.Fatalf("epsilon %v, want floor 0.1", a.Epsilon())
	}
}

func TestLearnNoOpBeforeWarmup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := New(testCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	loss, learned, err := a.Learn()
	if err != nil || learned || loss != 0 {
		t.Fatalf("pre-warmup learn: loss=%v learned=%v err=%v", loss, learned, err)
	}
}

// twoArmEnv is a 1-step bandit: action 1 always pays 1, action 0 pays
// 0. The greedy policy must learn to pick action 1.
type twoArmEnv struct{}

func (twoArmEnv) Reset() (vecmath.Vec, error) { return vecmath.Vec{1, 0}, nil }

func (twoArmEnv) Step(action int) (vecmath.Vec, float64, bool, error) {
	r := 0.0
	if action == 1 {
		r = 1
	}
	return vecmath.Vec{1, 0}, r, true, nil
}

func TestAgentLearnsBandit(t *testing.T) {
	cfg := Config{
		StateDim: 2, NumActions: 2, Hidden: 16,
		BatchSize: 16, ReplayCapacity: 256, TargetSync: 20,
		EpsDecay: 0.99, LearningRate: 5e-3,
	}
	rng := rand.New(rand.NewSource(6))
	a, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	returns, err := a.Train(twoArmEnv{}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(returns) != 300 {
		t.Fatalf("returns len %d", len(returns))
	}
	act, err := a.Greedy(vecmath.Vec{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if act != 1 {
		q := qValues(t, a, vecmath.Vec{1, 0})
		t.Fatalf("greedy action %d, want 1 (q=%v)", act, q)
	}
}

// chainEnv is a 3-state chain: from state i, action 1 advances, action
// 0 stays; reaching state 2 ends the episode with reward 1, each step
// costs -0.05. Tests multi-step credit assignment via bootstrapping.
type chainEnv struct {
	pos int
}

func (c *chainEnv) state() vecmath.Vec {
	s := make(vecmath.Vec, 3)
	s[c.pos] = 1
	return s
}

func (c *chainEnv) Reset() (vecmath.Vec, error) {
	c.pos = 0
	return c.state(), nil
}

func (c *chainEnv) Step(action int) (vecmath.Vec, float64, bool, error) {
	if action == 1 {
		c.pos++
	}
	if c.pos >= 2 {
		return c.state(), 1, true, nil
	}
	return c.state(), -0.05, false, nil
}

func TestAgentSolvesChain(t *testing.T) {
	cfg := Config{
		StateDim: 3, NumActions: 2, Hidden: 24,
		BatchSize: 16, ReplayCapacity: 512, TargetSync: 25,
		EpsDecay: 0.995, LearningRate: 3e-3, Gamma: 0.9,
	}
	rng := rand.New(rand.NewSource(7))
	a, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(&chainEnv{}, 250, 20); err != nil {
		t.Fatal(err)
	}
	// Greedy policy must advance from both non-terminal states.
	for pos := 0; pos < 2; pos++ {
		s := make(vecmath.Vec, 3)
		s[pos] = 1
		act, gerr := a.Greedy(s)
		if gerr != nil {
			t.Fatal(gerr)
		}
		if act != 1 {
			t.Fatalf("state %d greedy action %d, want 1", pos, act)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, err := New(testCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(twoArmEnv{}, 0, 5); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if _, err := a.Train(twoArmEnv{}, 5, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// failEnv returns an error on Step to exercise error propagation.
type failEnv struct{}

func (failEnv) Reset() (vecmath.Vec, error) { return vecmath.Vec{0, 0}, nil }
func (failEnv) Step(int) (vecmath.Vec, float64, bool, error) {
	return nil, 0, false, fmt.Errorf("boom")
}

func TestTrainPropagatesEnvError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, err := New(testCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(failEnv{}, 1, 5); err == nil {
		t.Fatal("env error must propagate")
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() []float64 {
		cfg := testCfg()
		cfg.NumActions = 2
		a, err := New(cfg, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		rets, err := a.Train(twoArmEnv{}, 50, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rets
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("training must be deterministic for a fixed seed")
		}
	}
}

// TestAgentEncodeDecodeState: an agent's weights decode into a second
// agent of the same Config, whose Q-values then match; an agent of
// another shape refuses them as corrupt.
func TestAgentEncodeDecodeState(t *testing.T) {
	cfg := testCfg()
	a, err := New(cfg, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	state := vecmath.Vec{0.3, -0.4}
	var enc checkpoint.Enc
	a.EncodeState(&enc)
	d := checkpoint.NewDec(enc.Bytes())
	if err := b.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	qa, qb := qValues(t, a, state), qValues(t, b, state)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("q-values differ after state transfer")
		}
	}
	// Mismatched shape rejected.
	other, err := New(Config{StateDim: 3, NumActions: 2, Hidden: 8}, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.DecodeState(checkpoint.NewDec(enc.Bytes())); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("mismatched agent: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// Both DQN variants must solve the chain; double-Q exists to curb
// value overestimation, which we check by comparing the learned
// maximum Q value of the start state against the true optimal return.
func TestVanillaVsDoubleOverestimation(t *testing.T) {
	maxQ := func(vanilla bool) float64 {
		cfg := Config{
			StateDim: 3, NumActions: 2, Hidden: 24,
			BatchSize: 16, ReplayCapacity: 512, TargetSync: 25,
			EpsDecay: 0.995, LearningRate: 3e-3, Gamma: 0.9,
			Vanilla: vanilla,
		}
		a, err := New(cfg, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Train(&chainEnv{}, 250, 20); err != nil {
			t.Fatal(err)
		}
		q := qValues(t, a, vecmath.Vec{1, 0, 0})
		return q[vecmath.ArgMax(q)]
	}
	// True optimal return from the start: -0.05 + 0.9·1 = 0.85.
	const optimal = 0.85
	double := maxQ(false)
	vanilla := maxQ(true)
	if math.Abs(double-optimal) > 0.5 {
		t.Fatalf("double-DQN start-state value %v far from optimal %v", double, optimal)
	}
	// Vanilla must also learn the task (policy check).
	if vanilla < 0 {
		t.Fatalf("vanilla DQN failed to learn: max Q %v", vanilla)
	}
}

// fullBackward hides a layer's parameter-only backward: a network
// whose first layer is wrapped in it runs that layer's full
// BackwardBatch and drops the input gradient.
type fullBackward struct{ nn.Layer }

// agentBits flattens an agent's online weights, Adam step count and
// Adam moment estimates to their bit patterns.
func agentBits(t *testing.T, a *Agent) []uint64 {
	t.Helper()
	var bits []uint64
	for _, p := range a.online.net.Params() {
		for _, w := range p.W {
			bits = append(bits, math.Float64bits(w))
		}
	}
	v := reflect.ValueOf(a.opt).Elem()
	step := v.FieldByName("t")
	if !step.IsValid() {
		t.Fatal("nn.Adam has no step counter t")
	}
	bits = append(bits, uint64(step.Int()))
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

// TestFirstLayerGradSkipBitIdentical: Learn's backward stops at the
// first Dense layer's parameter gradients. Against a reference whose
// first layer runs the full BackwardBatch and drops dx, the online
// weights and the Adam state are bit-identical after many steps.
func TestFirstLayerGradSkipBitIdentical(t *testing.T) {
	cfg := Config{StateDim: 6, NumActions: 4, Hidden: 32, BatchSize: 16, ReplayCapacity: 256, TargetSync: 10}
	fast, err := New(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	layers := append([]nn.Layer(nil), ref.online.net.Layers()...)
	layers[0] = fullBackward{layers[0]}
	if ref.online.net, err = nn.NewNetwork(cfg.StateDim, layers...); err != nil {
		t.Fatal(err)
	}
	ref.params = ref.online.net.Params()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		tr := Transition{State: make(vecmath.Vec, 6), Action: rng.Intn(4), Reward: rng.NormFloat64(), Done: i%7 == 0}
		for j := range tr.State {
			tr.State[j] = rng.NormFloat64()
		}
		if !tr.Done {
			tr.NextState = make(vecmath.Vec, 6)
			for j := range tr.NextState {
				tr.NextState[j] = rng.NormFloat64()
			}
		}
		for _, a := range []*Agent{fast, ref} {
			if err := a.Observe(tr); err != nil {
				t.Fatal(err)
			}
			if _, _, err := a.Learn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fast.learnSteps == 0 || fast.learnSteps != ref.learnSteps {
		t.Fatalf("learn steps %d vs reference %d", fast.learnSteps, ref.learnSteps)
	}
	if !slices.Equal(agentBits(t, fast), agentBits(t, ref)) {
		t.Fatal("online weights or Adam state differ from the full-backward reference")
	}
}
