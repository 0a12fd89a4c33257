// Package grouping implements the paper's two-step multicast group
// construction (§II-B1): a 1D-CNN compresses each user's time-series
// UDT window into a compact code, a DDQN selects the grouping number K
// by mining user similarity, and K-means++ performs the fast
// clustering. Fixed-K and raw-feature (no-CNN) baselines are included
// for the ablation experiments.
package grouping

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dtmsvs/internal/cnn"
	"dtmsvs/internal/ddqn"
	"dtmsvs/internal/kmeans"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
)

// ErrConfig indicates an invalid grouping configuration.
var ErrConfig = errors.New("grouping: invalid config")

// Group is one multicast group.
type Group struct {
	ID int
	// Members holds indices into the twin slice passed to Build.
	Members []int
	// Centroid is the group center in code space.
	Centroid vecmath.Vec
}

// Result is a complete group construction. It owns its groups; its
// Codes are the builder's staging, read through until the builder's
// next construction (see Codes).
type Result struct {
	Groups []Group
	// K is the grouping number used.
	K int
	// Codes are the per-user compressed features used. They alias the
	// builder's code staging: they hold until the builder's next
	// construction, TrainAgent or BestKExhaustive, which overwrites
	// them. Copy them to keep them longer.
	Codes []vecmath.Vec

	// assign and pool are what Silhouette scores: the K-means
	// assignment of Codes, and the pool its scan fans across. dists is
	// the builder's staging, which Silhouette restages with Codes.
	assign []int
	pool   *parallel.Pool
	dists  *kmeans.DistMatrix
	// silhouette memoises Silhouette once silhouetteDone is set.
	silhouette     float64
	silhouetteDone bool
}

// RestoredResult returns a result that knows only its silhouette, as
// a checkpoint records it: Silhouette returns sil, and the groups,
// codes and K are empty.
func RestoredResult(sil float64) *Result {
	return &Result{silhouette: sil, silhouetteDone: true}
}

// Silhouette returns the clustering's exact silhouette over Codes (0
// when K == 1), kmeans.SilhouetteDists over the staged codes. Only some
// constructions' silhouettes are ever read, so the O(N²) scan runs on
// the first call, not at build time, and later calls return the
// memoised value. The scan stages Codes in the builder's DistMatrix,
// which the builder's reward table also uses, so once that has grown it
// allocates nothing. The builder rejects every input Stage or
// SilhouetteDists would, so the scan cannot fail. The first call must
// come before the builder's next construction overwrites Codes, and a
// call must not overlap another call on a result of the same builder,
// or a call on the builder.
func (r *Result) Silhouette() float64 {
	if !r.silhouetteDone {
		if r.K >= 2 {
			err := r.dists.Stage(r.Codes)
			var sil float64
			if err == nil {
				sil, err = kmeans.SilhouetteDists(r.dists, r.assign, r.K, r.pool)
			}
			if err != nil {
				panic(fmt.Sprintf("grouping: silhouette of a validated clustering: %v", err))
			}
			r.silhouette = sil
		}
		r.silhouetteDone = true
	}
	return r.silhouette
}

// Config parameterizes the builder.
type Config struct {
	// WindowSteps is the UDT feature window length per channel.
	WindowSteps int
	// PosScale normalizes location features (campus dimension).
	PosScale float64
	// KMin/KMax bound the grouping number (DDQN action space is
	// KMax−KMin+1 actions).
	KMin, KMax int
	// UseCNN disables compression when false (raw-window baseline).
	UseCNN bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.WindowSteps <= 0:
		return fmt.Errorf("window steps %d: %w", c.WindowSteps, ErrConfig)
	case c.PosScale <= 0:
		return fmt.Errorf("pos scale %v: %w", c.PosScale, ErrConfig)
	case c.KMin < 1 || c.KMax < c.KMin:
		return fmt.Errorf("k range [%d,%d]: %w", c.KMin, c.KMax, ErrConfig)
	}
	return nil
}

// groupCostWeight is the per-group penalty λ in the DDQN reward
// r = silhouette − λ·K/KMax. It encodes the radio cost of maintaining
// more multicast groups.
const groupCostWeight = 0.15

// StateDim is the width of the DDQN observation built by envState.
const StateDim = 8

// Builder runs the two-step construction.
type Builder struct {
	cfg        Config
	compressor *cnn.Compressor
	agent      *ddqn.Agent
	rng        *rand.Rand
	pool       *parallel.Pool
	// windows stages one compressor batch of CodesInto's windows.
	windows vecmath.Matrix
	// codes stages the codes of the latest construction or training
	// env, and codeRows views its rows; the latest Result's Codes are
	// codeRows.
	codes    vecmath.Matrix
	codeRows []vecmath.Vec
	// dists stages the codes the reward table and the results'
	// silhouettes score, one code set at a time.
	dists kmeans.DistMatrix
	// km is the reward's K-means storage, reused by every K it
	// scores: a reward reads its run's assignment before the next.
	km kmeans.Scratch
}

// SetPool fans the K-means assignment and silhouette scans across the
// given worker pool (nil restores the sequential path). Results are
// bit-identical either way.
func (b *Builder) SetPool(p *parallel.Pool) { b.pool = p }

// SetGEMMPool does nothing: training GEMMs always run the sequential
// vecmath kernels. It exists only so the benchmark harness compiles,
// and goes when that harness is next edited.
func (b *Builder) SetGEMMPool(*vecmath.GEMMPool) {}

// New constructs a builder: with the CNN on, a compressor of one fixed
// architecture over the windows the builder feeds it (8 filters of
// width 3, max-pool 2, an 8-wide code), and a DDQN over StateDim-wide
// observations with one action per grouping number in [KMin, KMax].
func New(cfg Config, rng *rand.Rand) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{cfg: cfg, rng: rng}
	if cfg.UseCNN {
		comp, err := cnn.New(cnn.Config{
			Channels: udt.NumFeatureChannels,
			Window:   cfg.WindowSteps,
			Filters:  8,
			Kernel:   3,
			Pool:     2,
			CodeDim:  8,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("grouping compressor: %w", err)
		}
		b.compressor = comp
	}
	// A degenerate action space is padded so the DDQN stays valid; the
	// extra action maps back to KMax.
	agent, err := ddqn.New(ddqn.Config{StateDim: StateDim, NumActions: max(cfg.KMax-cfg.KMin+1, 2)}, rng)
	if err != nil {
		return nil, fmt.Errorf("grouping agent: %w", err)
	}
	b.agent = agent
	return b, nil
}

// CodesInto writes the code of every twin (its raw window when the CNN
// is disabled) into a row of dst, which it resizes to len(twins) rows.
// With the CNN on, the windows are staged a compressor batch at a time
// in a builder-owned matrix and each batch is encoded into its rows of
// dst, so once the scratch has grown a call allocates nothing and the
// scratch stays one batch whatever the call's size. Each row equals
// the twin's FeatureWindow encoded alone with Compressor.EncodeInto,
// bit for bit.
func (b *Builder) CodesInto(dst *vecmath.Matrix, twins []*udt.Twin) error {
	if len(twins) == 0 {
		return fmt.Errorf("no twins: %w", ErrConfig)
	}
	width := udt.NumFeatureChannels * b.cfg.WindowSteps
	if b.compressor == nil {
		if err := dst.Resize(len(twins), width); err != nil {
			return err
		}
		return b.windowsInto(dst, twins)
	}
	cd := b.compressor.Config().CodeDim
	if err := dst.Resize(len(twins), cd); err != nil {
		return err
	}
	batch := b.compressor.Config().Batch
	for start := 0; start < len(twins); start += batch {
		part := twins[start:min(start+batch, len(twins))]
		if err := b.windows.Resize(len(part), width); err != nil {
			return err
		}
		if err := b.windowsInto(&b.windows, part); err != nil {
			return err
		}
		rows := vecmath.Matrix{Rows: len(part), Cols: cd, Data: dst.Data[start*cd : (start+len(part))*cd]}
		if err := b.compressor.EncodeInto(&rows, &b.windows); err != nil {
			return err
		}
	}
	return nil
}

// windowsInto writes each twin's feature window into a row of dst.
func (b *Builder) windowsInto(dst *vecmath.Matrix, twins []*udt.Twin) error {
	for i, tw := range twins {
		if err := tw.FeatureWindowInto(dst.Row(i), b.cfg.WindowSteps, b.cfg.PosScale); err != nil {
			return fmt.Errorf("twin %d window: %w", i, err)
		}
	}
	return nil
}

// stageCodes writes the twins' codes into the builder's staging with
// CodesInto and returns views of its rows, valid until the next call.
// Once the staging has grown to the population it allocates nothing.
func (b *Builder) stageCodes(twins []*udt.Twin) ([]vecmath.Vec, error) {
	if err := b.CodesInto(&b.codes, twins); err != nil {
		return nil, err
	}
	b.codeRows = rowViews(b.codeRows, &b.codes)
	return b.codeRows, nil
}

// rowViews resizes views to m's rows and points each at its row of m,
// capacity-capped so that an append to one cannot reach the next.
func rowViews(views []vecmath.Vec, m *vecmath.Matrix) []vecmath.Vec {
	views = slices.Grow(views[:0], m.Rows)[:m.Rows]
	for i := range views {
		views[i] = m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
	}
	return views
}

// TrainCompressor fits the 1D-CNN autoencoder on the twins' current
// windows for at most epochs epochs, returning the last epoch's mean
// loss. The fit stops early on a plateau: after 8 epochs, the first
// epoch whose loss improves on the best earlier epoch by less than 1 %
// is the last (cnn.Compressor.Fit). The windows are staged in one
// matrix that lives only as long as the fit. No-op (returns 0) when
// the CNN is disabled.
func (b *Builder) TrainCompressor(twins []*udt.Twin, epochs int) (float64, error) {
	if b.compressor == nil {
		return 0, nil
	}
	if len(twins) == 0 {
		return 0, fmt.Errorf("no twins: %w", ErrConfig)
	}
	var windows vecmath.Matrix
	if err := windows.Resize(len(twins), udt.NumFeatureChannels*b.cfg.WindowSteps); err != nil {
		return 0, err
	}
	if err := b.windowsInto(&windows, twins); err != nil {
		return 0, err
	}
	return b.compressor.Fit(rowViews(nil, &windows), epochs, b.rng)
}

// envState summarizes a code set into the fixed-size DDQN observation:
// [n/100, mean pairwise dist, std pairwise dist, min, max, mean code
// norm, std code norm, dim/32].
func envState(codes []vecmath.Vec) (vecmath.Vec, error) {
	n := len(codes)
	if n == 0 {
		return nil, fmt.Errorf("no codes: %w", ErrConfig)
	}
	var pair stats.Online
	minD, maxD := math.Inf(1), 0.0
	// Sample up to ~2000 pairs to keep the state O(1)-ish.
	step := 1
	if n > 64 {
		step = n / 64
	}
	for i := 0; i < n; i += step {
		for j := i + 1; j < n; j += step {
			d, err := vecmath.Dist(codes[i], codes[j])
			if err != nil {
				return nil, err
			}
			pair.Add(d)
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if pair.N() == 0 {
		minD = 0
	}
	var norms stats.Online
	for _, c := range codes {
		norms.Add(vecmath.Norm2(c))
	}
	return vecmath.Vec{
		float64(n) / 100,
		pair.Mean(),
		pair.Std(),
		minD,
		maxD,
		norms.Mean(),
		norms.Std(),
		float64(len(codes[0])) / 32,
	}, nil
}

// reward scores a candidate K on the codes: one K-means++ run, then
// its silhouette minus the per-group cost penalty. K=1 uses a
// normalized-inertia proxy since silhouette is undefined. Its callers
// score many K on one fixed code set, staged once in dists. They call
// it through a rewardTable, which runs it at most once per K.
func (b *Builder) reward(codes []vecmath.Vec, dists *kmeans.DistMatrix, k int) (float64, error) {
	res, err := b.km.Run(codes, k, b.rng, kmeans.Options{Pool: b.pool})
	if err != nil {
		return 0, err
	}
	var quality float64
	if k >= 2 {
		s, serr := kmeans.SilhouetteDists(dists, res.Assign, k, b.pool)
		if serr != nil {
			return 0, serr
		}
		quality = s
	} else {
		// Single group: quality is high only if users are truly
		// homogeneous; use 1 − normalized mean distance to centroid.
		mean := res.Inertia / float64(len(codes))
		quality = 1 - math.Sqrt(mean)
	}
	penalty := groupCostWeight * float64(k) / float64(b.cfg.KMax)
	return quality - penalty, nil
}

// rewardTable holds one reward per grouping number for one fixed code
// set, indexed by K−KMin. The first lookup of a K runs reward, which
// draws its K-means++ seeding from the builder's stream; every later
// lookup returns the stored value and draws nothing. A Lloyd run
// warm-started from the converged centroids of a K already scored
// would stop after one pass with the same assignment, so the stored
// reward is what that run would return. The table lives as long as its
// codes: one TrainAgent or BestKExhaustive call.
type rewardTable struct {
	b      *Builder
	codes  []vecmath.Vec
	dists  *kmeans.DistMatrix
	reward []float64
	filled []bool
}

// newRewardTable stages the codes in the builder's DistMatrix and
// returns an empty table over them. The table must not outlive the
// next use of that staging: another table, or a result's Silhouette.
func (b *Builder) newRewardTable(codes []vecmath.Vec) (*rewardTable, error) {
	if err := b.dists.Stage(codes); err != nil {
		return nil, err
	}
	n := b.cfg.KMax - b.cfg.KMin + 1
	return &rewardTable{b: b, codes: codes, dists: &b.dists, reward: make([]float64, n), filled: make([]bool, n)}, nil
}

// at returns the reward of K, scoring it on first use.
func (t *rewardTable) at(k int) (float64, error) {
	i := k - t.b.cfg.KMin
	if !t.filled[i] {
		r, err := t.b.reward(t.codes, t.dists, k)
		if err != nil {
			return 0, err
		}
		t.reward[i], t.filled[i] = r, true
	}
	return t.reward[i], nil
}

// kOfAction maps a DDQN action index to a grouping number.
func (b *Builder) kOfAction(action int) int {
	k := b.cfg.KMin + action
	if k > b.cfg.KMax {
		k = b.cfg.KMax
	}
	return k
}

// kEnv is the one-step K-selection MDP: the state summarizes the code
// set, the action is K, the reward is the clustering quality net of
// group cost, and the episode terminates immediately (contextual
// bandit), matching how the paper uses the DDQN purely to pick the
// grouping number. The state and the codes are fixed for the env's
// life, so a K's reward is too: it is read from the env's rewardTable,
// and only the first episode that picks a K pays for scoring it.
type kEnv struct {
	b       *Builder
	rewards *rewardTable
	state   vecmath.Vec
}

var _ ddqn.Env = (*kEnv)(nil)

// newKEnv compresses the twins into the builder's code staging and
// builds the MDP over their codes.
func (b *Builder) newKEnv(twins []*udt.Twin) (*kEnv, error) {
	codes, err := b.stageCodes(twins)
	if err != nil {
		return nil, err
	}
	state, err := envState(codes)
	if err != nil {
		return nil, err
	}
	rewards, err := b.newRewardTable(codes)
	if err != nil {
		return nil, err
	}
	return &kEnv{b: b, rewards: rewards, state: state}, nil
}

func (e *kEnv) Reset() (vecmath.Vec, error) { return e.state, nil }

func (e *kEnv) Step(action int) (vecmath.Vec, float64, bool, error) {
	k := e.b.kOfAction(action)
	if k > len(e.rewards.codes) {
		// Infeasible K for this population: strongly negative reward.
		return e.state, -1, true, nil
	}
	r, err := e.rewards.at(k)
	if err != nil {
		return e.state, 0, true, err
	}
	return e.state, r, true, nil
}

// TrainAgent trains the DDQN on the K-selection MDP over the given
// twin snapshot for the given number of episodes, returning
// per-episode rewards. The codes are fixed for the whole call, so each
// of the KMax−KMin+1 grouping numbers is scored — K-means++ and an
// exact silhouette over the codes staged once up front — by the
// first episode that picks it; the rest of the episodes reuse those
// scores and cost only the agent's own step. A later call starts from
// an empty table, since its codes differ.
func (b *Builder) TrainAgent(twins []*udt.Twin, episodes int) ([]float64, error) {
	env, err := b.newKEnv(twins)
	if err != nil {
		return nil, err
	}
	return b.agent.Train(env, episodes, 1)
}

// SelectK runs the trained DDQN greedily to pick the grouping number
// for the given codes.
func (b *Builder) SelectK(codes []vecmath.Vec) (int, error) {
	state, err := envState(codes)
	if err != nil {
		return 0, err
	}
	action, err := b.agent.Greedy(state)
	if err != nil {
		return 0, err
	}
	k := b.kOfAction(action)
	if k > len(codes) {
		k = len(codes)
	}
	return k, nil
}

// assemble turns a K-means run over codes into a Result. It checks
// the run against everything kmeans.DistMatrix.Stage and
// kmeans.SilhouetteDists validate, so the result's deferred silhouette
// scan cannot fail.
func (b *Builder) assemble(codes []vecmath.Vec, res *kmeans.Result) (*Result, error) {
	if len(codes) == 0 || len(res.Assign) != len(codes) {
		return nil, fmt.Errorf("%d codes, %d assignments: %w", len(codes), len(res.Assign), ErrConfig)
	}
	for i, c := range codes {
		if len(c) != len(codes[0]) {
			return nil, fmt.Errorf("code %d dim %d, want %d: %w", i, len(c), len(codes[0]), ErrConfig)
		}
	}
	// The groups' member lists are capacity-capped windows of one
	// array, sized by a first counting pass.
	start := make([]int, res.K+1)
	for i, a := range res.Assign {
		if a < 0 || a >= res.K {
			return nil, fmt.Errorf("code %d assigned to %d of %d groups: %w", i, a, res.K, ErrConfig)
		}
		start[a+1]++
	}
	for g := range res.K {
		start[g+1] += start[g]
	}
	members := make([]int, len(res.Assign))
	groups := make([]Group, res.K)
	for g := range groups {
		groups[g] = Group{ID: g, Centroid: vecmath.Clone(res.Centroids[g]), Members: members[start[g]:start[g]:start[g+1]]}
	}
	for i, a := range res.Assign {
		groups[a].Members = append(groups[a].Members, i)
	}
	return &Result{Groups: groups, K: res.K, Codes: codes, assign: res.Assign, pool: b.pool, dists: &b.dists}, nil
}

// Build runs the full two-step construction: compress, pick K with the
// DDQN, cluster with K-means++. The codes are staged in the builder
// (see Result.Codes).
func (b *Builder) Build(twins []*udt.Twin) (*Result, error) {
	codes, err := b.stageCodes(twins)
	if err != nil {
		return nil, err
	}
	k, err := b.SelectK(codes)
	if err != nil {
		return nil, err
	}
	// Tiny populations (small cluster cells) can undercut the agent's
	// action range; clustering can never use more centers than points.
	if k > len(codes) {
		k = len(codes)
	}
	res, err := kmeans.Run(codes, k, b.rng, kmeans.Options{Pool: b.pool})
	if err != nil {
		return nil, err
	}
	return b.assemble(codes, res)
}

// BuildFixedK is the fixed-K baseline: skip the DDQN and cluster
// directly with the given grouping number.
func (b *Builder) BuildFixedK(twins []*udt.Twin, k int) (*Result, error) {
	codes, err := b.stageCodes(twins)
	if err != nil {
		return nil, err
	}
	if k > len(codes) {
		return nil, fmt.Errorf("k=%d for %d users: %w", k, len(codes), ErrConfig)
	}
	res, err := kmeans.Run(codes, k, b.rng, kmeans.Options{Pool: b.pool})
	if err != nil {
		return nil, err
	}
	return b.assemble(codes, res)
}

// RandIndex measures the agreement of two partitions of the same
// user set in [0, 1]: the fraction of user pairs on which the two
// groupings agree (same-group in both, or split in both). Used to
// quantify multicast-group stability across regroups — unstable
// groups force frequent multicast channel reconfiguration.
//
// The pairs are counted from the contingency table of (a, b) labels in
// O(n): a pair agrees unless it is together in exactly one partition,
// so agree = total − sameA − sameB + 2·sameBoth. The counts are exact
// int64s, and the one division sees the same two integers a loop over
// the pairs would accumulate (exactly, below 2⁵³ pairs), so the result
// is bit-identical to that loop's.
func RandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("rand index over %d vs %d assignments: %w", len(a), len(b), ErrConfig)
	}
	cells := make(map[[2]int]int64)
	for i := range a {
		cells[[2]int{a[i], b[i]}]++
	}
	rows := make(map[int]int64)
	cols := make(map[int]int64)
	var sameBoth int64
	for ab, c := range cells {
		rows[ab[0]] += c
		cols[ab[1]] += c
		sameBoth += pairs(c)
	}
	var sameA, sameB int64
	for _, c := range rows {
		sameA += pairs(c)
	}
	for _, c := range cols {
		sameB += pairs(c)
	}
	total := pairs(int64(len(a)))
	agree := total - sameA - sameB + 2*sameBoth
	return float64(agree) / float64(total), nil
}

// pairs is the number of unordered pairs among c items.
func pairs(c int64) int64 { return c * (c - 1) / 2 }

// Assignments flattens a Result into a per-user group-index slice of
// the given population size (users missing from the result get -1).
func (r *Result) Assignments(numUsers int) []int {
	out := make([]int, numUsers)
	for i := range out {
		out[i] = -1
	}
	for g, grp := range r.Groups {
		for _, m := range grp.Members {
			if m >= 0 && m < numUsers {
				out[m] = g
			}
		}
	}
	return out
}

// BestKExhaustive scans every K in [KMin, KMax] and returns the one
// with the highest reward — the oracle the DDQN is trained toward,
// used in tests and ablation benches. It reads each K through a fresh
// rewardTable, once and in ascending order, so it scores every K
// exactly as an uncached scan would, with the same draws.
func (b *Builder) BestKExhaustive(twins []*udt.Twin) (int, float64, error) {
	codes, err := b.stageCodes(twins)
	if err != nil {
		return 0, 0, err
	}
	rewards, err := b.newRewardTable(codes)
	if err != nil {
		return 0, 0, err
	}
	bestK, bestR := 0, math.Inf(-1)
	for k := b.cfg.KMin; k <= b.cfg.KMax && k <= len(codes); k++ {
		r, rerr := rewards.at(k)
		if rerr != nil {
			return 0, 0, rerr
		}
		if r > bestR {
			bestK, bestR = k, r
		}
	}
	if bestK == 0 {
		return 0, 0, fmt.Errorf("no feasible k in [%d,%d] for %d users: %w",
			b.cfg.KMin, b.cfg.KMax, len(codes), ErrConfig)
	}
	return bestK, bestR, nil
}
