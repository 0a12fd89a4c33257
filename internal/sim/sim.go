// Package sim is the slotted simulation engine that drives the whole
// system: mobility → channel sampling → UDT collection → multicast
// group construction (grouping) → group-level abstraction and demand
// prediction (predict) → shared-feed multicast streaming with swipe
// behavior → ground-truth demand measurement. One reservation interval
// is 5 minutes (paper §III); predictions for interval t are made from
// data up to t−1 and scored against the measured demand of t.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/channel"
	"dtmsvs/internal/edge"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/radio"
	"dtmsvs/internal/segment"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/tracebin"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

// Model constants of the engine.
const (
	// coverageQuantile sets the multicast MCS coverage target: the
	// group SNR is the mean of the worst 2×coverageQuantile share of
	// members (a lower conditional tail expectation), matching eMBMS
	// coverage-based MCS selection while staying robust to
	// extreme-value noise.
	coverageQuantile = 0.1
	// reserveMargin is the reservation headroom when RBBudget > 0.
	reserveMargin = 0.1
)

// ErrConfig indicates an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid config")

// ErrEmptyScenario indicates a degenerate scenario with nothing to
// simulate — no users or no intervals. It wraps ErrConfig, so callers
// matching the broader class keep working; the session API surfaces
// it as a typed error instead of an empty trace with undefined
// summary fields.
var ErrEmptyScenario = fmt.Errorf("empty scenario: %w", ErrConfig)

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives every random choice; a fixed seed reproduces the
	// run bit-for-bit.
	Seed int64
	// NumUsers on the campus.
	NumUsers int
	// NumBS base stations on the grid.
	NumBS int
	// TxPowerDBm per resource block (default 30).
	TxPowerDBm float64
	// CatalogSize is the number of videos (default 500).
	CatalogSize int
	// CategoryWeights biases the catalog mix; nil = News-heavy mix
	// matching Fig. 3 ("users watch News videos most, Game least").
	CategoryWeights []float64
	// IntervalS is the reservation interval (default 300 s).
	IntervalS float64
	// TicksPerInterval is the UDT collection rate per interval
	// (default 30, i.e. one collection every 10 s).
	TicksPerInterval int
	// NumIntervals simulated after warm-up.
	NumIntervals int
	// WarmupIntervals of individual browsing before grouping
	// (default 2).
	WarmupIntervals int
	// RegroupEvery intervals (default 4); a period of NumIntervals or
	// more never regroups.
	RegroupEvery int
	// Grouping configures the two-step group construction.
	Grouping grouping.Config
	// CompressorEpochs caps the 1D-CNN fit after warm-up (default 20):
	// the fit runs at most this many epochs and stops early on a
	// plateau — after 8 epochs, the first epoch whose loss improves on
	// the best earlier epoch by less than 1 % is the last.
	CompressorEpochs int
	// AgentEpisodes trains the DDQN after warm-up (default 150).
	AgentEpisodes int
	// TopNRecommend is the recommendation list length (default 50).
	TopNRecommend int
	// NominalRBsPerGroup caps each group's streaming rate
	// (default 3).
	NominalRBsPerGroup int
	// CacheBytes of the edge server (default 2 GiB).
	CacheBytes int64
	// SwipeGapS between consecutive feed videos (default 0.5).
	SwipeGapS float64
	// FixedK, when > 0, bypasses the DDQN and always clusters into
	// FixedK groups (baseline for experiment E2).
	FixedK int
	// RBBudget, when > 0, enables reservation-with-admission: each
	// interval the engine reserves ceil(prediction × (1+reserveMargin))
	// resource blocks per group from a shared budget; groups whose
	// grant is cut stream at the highest rung the grant sustains.
	// 0 disables admission (every group gets its nominal allocation).
	RBBudget int
	// SegmentS is the video segment length for prefetch-aware
	// delivery (default 4 s).
	SegmentS float64
	// PrefetchDepth is the prefetch window in segments beyond the
	// group playhead (default 2; any negative value means no
	// prefetch, and defaulting keeps it -1). Deeper prefetch wastes
	// more traffic when the group swipes — the paper's
	// over-provisioning effect.
	PrefetchDepth int
	// ChurnPerInterval is the fraction of users replaced by fresh
	// arrivals (new preference, mobility and cold twin) at each
	// interval boundary — the user dynamics that force the paper's
	// "frequent and accurate multicast group updates". 0 disables
	// churn.
	ChurnPerInterval float64
	// OracleK replaces the DDQN with an exhaustive scan over
	// [KMin, KMax] at every group construction — the classical
	// silhouette-maximizing baseline the DDQN amortizes. Mutually
	// exclusive with FixedK.
	OracleK bool
	// FadingRho enables temporally correlated fast fading (AR(1)
	// coefficient between collection ticks; 0 = i.i.d. Rayleigh).
	FadingRho float64
	// Parallelism is the number of worker goroutines the engine fans
	// per-user, per-group and grouping work across (0 =
	// runtime.NumCPU(), 1 = fully sequential). The goroutines live
	// only for one fan-out; the training GEMMs run on the calling
	// goroutine. The trace is bit-identical for every value:
	// each user, group and churn arrival draws from its own random
	// stream derived from Seed, and all reductions run in index order.
	Parallelism int
}

// Defaulted returns the configuration with every default filled in.
// It is idempotent, so layers that each default the configuration
// (the cluster engine, then every cell) run the values the caller
// meant: in particular "no prefetch" stays -1, never the 0 that a
// second pass would read as "default depth".
func (c Config) Defaulted() Config {
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = 30
	}
	if c.CatalogSize == 0 {
		c.CatalogSize = 500
	}
	if c.CategoryWeights == nil {
		// News > Sports > Music > Comedy > Game, as in Fig. 3(a).
		c.CategoryWeights = []float64{5, 3, 2.5, 2, 1}
	}
	if c.IntervalS == 0 {
		c.IntervalS = 300
	}
	if c.TicksPerInterval == 0 {
		c.TicksPerInterval = 30
	}
	if c.WarmupIntervals == 0 {
		c.WarmupIntervals = 2
	}
	if c.RegroupEvery == 0 {
		c.RegroupEvery = 4
	}
	if c.CompressorEpochs == 0 {
		c.CompressorEpochs = 20
	}
	if c.AgentEpisodes == 0 {
		c.AgentEpisodes = 150
	}
	if c.TopNRecommend == 0 {
		c.TopNRecommend = 50
	}
	if c.NominalRBsPerGroup == 0 {
		c.NominalRBsPerGroup = 3
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.SwipeGapS == 0 {
		c.SwipeGapS = 0.5
	}
	if c.SegmentS == 0 {
		c.SegmentS = 4
	}
	switch {
	case c.PrefetchDepth == 0:
		c.PrefetchDepth = 2
	case c.PrefetchDepth < 0:
		c.PrefetchDepth = -1
	}
	if c.Grouping.WindowSteps == 0 {
		c.Grouping.WindowSteps = 16
	}
	if c.Grouping.PosScale == 0 {
		c.Grouping.PosScale = 2000
	}
	if c.Grouping.KMin == 0 {
		c.Grouping.KMin = 2
	}
	if c.Grouping.KMax == 0 {
		c.Grouping.KMax = 8
	}
	return c
}

// prefetchSegments is the prefetch window the delivery model runs:
// PrefetchDepth, with "no prefetch" as 0 segments.
func (c Config) prefetchSegments() int { return max(c.PrefetchDepth, 0) }

// twinHistory is the ring capacity of every engine twin. The rings'
// one reader is the grouping's FeatureWindow(Grouping.WindowSteps),
// which takes the newest WindowSteps samples and pads with the oldest
// of them, so a ring holding the window yields the window any larger
// ring would; older samples were never read. The 4·TicksPerInterval
// cap leaves a window longer than that on the ring it always had, and
// udt refuses rings under 2.
func (c Config) twinHistory() int {
	return max(2, min(4*c.TicksPerInterval, c.Grouping.WindowSteps))
}

// Validate checks the configuration.
func (c Config) Validate() error {
	d := c.Defaulted()
	switch {
	case d.NumUsers == 0:
		return fmt.Errorf("zero users: %w", ErrEmptyScenario)
	case d.NumIntervals == 0:
		return fmt.Errorf("zero intervals: %w", ErrEmptyScenario)
	case d.NumUsers < 0:
		return fmt.Errorf("users %d: %w", d.NumUsers, ErrConfig)
	case d.NumBS <= 0:
		return fmt.Errorf("base stations %d: %w", d.NumBS, ErrConfig)
	case d.NumIntervals < 0:
		return fmt.Errorf("intervals %d: %w", d.NumIntervals, ErrConfig)
	case d.IntervalS < 0 || d.TicksPerInterval < 0:
		return fmt.Errorf("interval of %v s in %d ticks: %w", d.IntervalS, d.TicksPerInterval, ErrConfig)
	case d.WarmupIntervals < 0 || d.RegroupEvery < 0:
		return fmt.Errorf("warm-up %d, regroup every %d intervals: %w", d.WarmupIntervals, d.RegroupEvery, ErrConfig)
	case d.CompressorEpochs < 0 || d.AgentEpisodes < 0:
		return fmt.Errorf("compressor epochs %d, agent episodes %d: %w", d.CompressorEpochs, d.AgentEpisodes, ErrConfig)
	case d.TopNRecommend < 0 || d.NominalRBsPerGroup < 0:
		return fmt.Errorf("top-n %d, nominal rbs %d: %w", d.TopNRecommend, d.NominalRBsPerGroup, ErrConfig)
	case d.SwipeGapS < 0:
		return fmt.Errorf("swipe gap %v: %w", d.SwipeGapS, ErrConfig)
	case d.FixedK < 0 || d.FixedK > d.NumUsers:
		return fmt.Errorf("fixed k %d for %d users: %w", d.FixedK, d.NumUsers, ErrConfig)
	case d.RBBudget < 0:
		return fmt.Errorf("rb budget %d: %w", d.RBBudget, ErrConfig)
	case d.SegmentS < 0:
		return fmt.Errorf("segment %v: %w", d.SegmentS, ErrConfig)
	case d.ChurnPerInterval < 0 || d.ChurnPerInterval >= 1:
		return fmt.Errorf("churn %v: %w", d.ChurnPerInterval, ErrConfig)
	case d.Parallelism < 0:
		return fmt.Errorf("parallelism %d: %w", d.Parallelism, ErrConfig)
	case d.OracleK && d.FixedK > 0:
		return fmt.Errorf("oracle-k and fixed-k both set: %w", ErrConfig)
	}
	if err := d.Grouping.Validate(); err != nil {
		return err
	}
	return nil
}

// GroupIntervalRecord is one (interval, group) row of the output
// trace: predicted vs measured demand. The row is defined, with its
// column table, in internal/tracebin.
type GroupIntervalRecord = tracebin.GroupIntervalRecord

// Trace is the full simulation output.
type Trace struct {
	// Records carry the BS of the engine that made them: -1 for the
	// monolithic engine, the cell id for a cluster cell.
	Records []tracebin.Record
	// SwipeByGroup holds the final abstracted swiping distribution
	// per group id.
	SwipeByGroup map[int]*predict.SwipeDistribution
	// K is the grouping number in use at the end of the run.
	K int
	// Silhouette of the final grouping.
	Silhouette float64
	// CacheHitRate of the edge server over the whole run.
	CacheHitRate float64
	// StabilityByRegroup holds the Rand index between consecutive
	// group constructions (1 = identical partitions).
	StabilityByRegroup []float64
	// ChurnedUsers counts users replaced over the run.
	ChurnedUsers int
}

// GroupSeries extracts the (predicted, actual) RB series of one group.
func (t *Trace) GroupSeries(groupID int) (pred, actual []float64) {
	for _, r := range t.Records {
		if r.GroupID == groupID {
			pred = append(pred, r.PredictedRBs)
			actual = append(actual, r.ActualRBs)
		}
	}
	return pred, actual
}

// RadioAccuracy returns the paper's prediction-accuracy metric over
// all groups' radio demand.
func (t *Trace) RadioAccuracy() (float64, error) {
	var acc stats.OnlineMAPE
	for _, r := range t.Records {
		acc.Add(r.PredictedRBs, r.ActualRBs)
	}
	return acc.Accuracy()
}

// ComputeAccuracy returns the volume accuracy over computing demand
// (cycles). Transcoding demand is bursty — zero in cache-warm
// intervals — so the volume metric (1 − Σ|err|/Σactual) is used
// instead of the per-sample percentage metric.
func (t *Trace) ComputeAccuracy() (float64, error) {
	var acc stats.OnlineVolume
	for _, r := range t.Records {
		acc.Add(r.PredictedCycles, r.ActualCycles)
	}
	return acc.Accuracy()
}

// WasteAccuracy returns the volume accuracy of the wasted-traffic
// prediction — the paper's over-provisioning quantity.
func (t *Trace) WasteAccuracy() (float64, error) {
	var acc stats.OnlineVolume
	for _, r := range t.Records {
		acc.Add(r.PredictedWasteBits, r.ActualWasteBits)
	}
	return acc.Accuracy()
}

// Random-stream tags: the first id fed to parallel.DeriveSeed after
// the run seed, keeping each family of derived streams disjoint.
const (
	// streamUser derives (tag, global user id, churn generation):
	// every user — including each fresh churn arrival in the same
	// slot — owns an independent draw sequence for its mobility,
	// channel, behavior and churn decisions. User ids are global
	// across a whole cluster run, so the stream travels with the twin
	// on cross-cell handover.
	streamUser uint64 = 1
	// streamGroup derives (tag, cell salt, construction counter, group
	// id): the shared-feed video selection draws of each multicast
	// group.
	streamGroup uint64 = 2
	// streamBuilder derives (tag, cell salt): the grouping builder's
	// private stream.
	streamBuilder uint64 = 3
	// streamCatalog derives (tag): the shared catalog's generation
	// stream.
	streamCatalog uint64 = 64
)

// user bundles one simulated user's state.
type user struct {
	id int
	// gen is the slot's churn generation: 0 for the original arrival,
	// incremented for each replacement. It feeds the stream derivation
	// so every fresh arrival draws from untouched randomness.
	gen uint64
	// rng is the user's private random stream; all of the user's
	// stochastic state (mobility, link fading, swipe draws, churn
	// decision) draws from it, which is what makes per-user fan-out
	// deterministic under any Parallelism. src is the stream behind
	// it, kept so checkpoints can capture and restore the position.
	src     *parallel.Stream
	rng     *rand.Rand
	profile *behavior.Profile
	mob     mobility.Model
	link    *channel.Link
	twin    *udt.Twin
	// meanSNR is the user's mean sampled SNR over the current
	// interval's ticks.
	meanSNR stats.OnlineMean
	// meanX/meanY accumulate the interval's mean position.
	meanX, meanY stats.OnlineMean
	// posPrev/posPrev2 are the mean positions of the two previous
	// intervals, used for velocity extrapolation.
	posPrev, posPrev2 mobility.Point
	havePos           int
	// snrOffset is the DT calibration offset: EWMA of observed SNR
	// minus the deterministic propagation model, absorbing shadowing
	// and mean fading per user.
	snrOffset *predict.EWMA
	// snrEWMA tracks the user's observed mean SNR directly; fused
	// with the model-based forecast to damp extrapolation error.
	snrEWMA *predict.EWMA
	// prevDisp is the last interval-to-interval displacement; persist
	// tracks the cosine similarity of consecutive displacements — the
	// user's velocity persistence, which sets how far the twin
	// extrapolates their position (waypoint turners ≈ 0.5, straight
	// walkers ≈ 1, statics irrelevant).
	prevDispX, prevDispY float64
	persist              *predict.EWMA
}

// groupState is the engine's per-group bookkeeping.
type groupState struct {
	id int
	// rng drives the group's shared-feed video selection; derived per
	// construction so streaming stays deterministic under parallelism.
	// src is the stream behind it, kept for checkpoint capture.
	src *parallel.Stream
	rng *rand.Rand
	// members holds global user ids (not slice indices), so membership
	// survives cross-cell user migration in cluster runs. In the
	// monolithic engine ids and indices coincide.
	members []int
	profile *predict.GroupProfile
	// centroid is the group's center in code space from the last
	// construction (nil when the population was too small to cluster);
	// migrated twins are handed to the nearest centroid.
	centroid []float64
}

// Simulation is a configured engine instance.
type Simulation struct {
	cfg Config
	// cnt is the source of the grouping builder's stream (weight
	// init, training) and counts its draws: the stdlib generator's
	// 607-word register is restored by replaying construction and
	// skipping forward to the recorded count. Per-user and per-group
	// randomness lives on derived streams.
	cnt *parallel.CountingSource
	// pool fans per-user and per-group stages across workers.
	pool *parallel.Pool
	// bs is the cell id of a cluster cell, or -1 for the monolithic
	// engine, the one cell over every station. It tags the engine's
	// trace rows, and cellSalt(bs) decorrelates the derived
	// group/builder streams of sibling cells.
	bs int
	// constructions counts group constructions, deriving each round's
	// per-group streams.
	constructions uint64
	params        channel.Params
	// prop is params.Propagation(): the SNR forecast's deterministic
	// model with its reference and noise terms taken once.
	prop     channel.Propagation
	stations []*channel.BaseStation
	// downBS, when non-nil, is the cluster engine's shared quarantine
	// mask over station ids: stations marked down take no link
	// handovers, churn arrivals or prediction anchors. The engine
	// writes it only between interval fan-outs; nil in the monolithic
	// engine and in healthy clusters, where nearest-BS resolution is
	// bit-identical to channel.NearestBS.
	downBS []bool
	// innerSq is servingDiscsSq(stations): per station, the squared
	// radius of the disc around it in which it is the nearest station.
	innerSq []float64
	campus  *mobility.Map
	users   []*user
	// byID maps a global user id below cfg.NumUsers to its member of
	// users (nil when absent), maintained by attach, detach, churn and
	// restore, because a cluster cell's sparse id set misses userPos's
	// dense fast path.
	byID    []*user
	catalog *video.Catalog
	// favDist draws a new user's favorite category from
	// cfg.CategoryWeights; read-only, shared by concurrent buildUser calls.
	favDist *stats.Categorical
	server  *edge.Server
	builder *grouping.Builder
	groups  []*groupState
	meanDur float64
	// scratch is the interval stages' per-group working set, indexed by
	// group id and reused across intervals.
	scratch []groupScratch
	// draws backs every group's swipe draws, carved per interval by
	// carveDraws into regions of feedCap videos per member.
	draws   []float64
	feedCap int

	// sched admits per-group RB reservations when RBBudget > 0.
	sched *radio.Scheduler

	// cyclesPerTxS tracks, per ladder level, the observed transcode
	// cycles per transmitted second. The edge cache is shared across
	// groups and stays warm per rung, so the tracker lives on the
	// engine (it must survive regrouping); only the first use of a
	// level anywhere is a cold-transcode interval.
	cyclesPerTxS map[int]*predict.EWMA
	// wastePerPlayS calibrates the waste forecast online: the EWMA of
	// measured waste per playback second. The closed-form swipe-CDF
	// model seeds the forecast, but it assumes independent per-view
	// watch draws while the abstraction stores per-user means, so the
	// measured rate takes over once observed.
	wastePerPlayS *predict.EWMA

	// predictor is the group-level demand model shared by every
	// interval's forecast pass.
	predictor predict.DemandPredictor

	// Handover scratch, kept so a boundary's batch allocates nothing
	// once grown: NearestGroups' twins and codes, and Splice's live
	// group sizes and the group each departure left.
	pickTwins   []*udt.Twin
	pickCodes   vecmath.Matrix
	spliceSizes []int
	spliceLeft  []int

	lastResult *grouping.Result
	// prevAssign holds the previous construction's per-user group
	// assignment for stability (Rand index) tracking.
	prevAssign []int
	stability  []float64
	churned    int

	// met holds the stage timers and counters mounted by SetMetrics;
	// the zero value records nothing.
	met engineMetrics
}

// New constructs the monolithic engine as a bare cell: one cell
// (BS -1) over every station of a substrate of its own, with one edge
// server of CacheBytes, holding the whole population — the cell
// cluster.NewWhole builds, for callers that step the stages
// themselves.
func New(cfg Config) (*Simulation, error) {
	sub, err := NewSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	server, err := sub.NewServer(cfg.Defaulted().CacheBytes)
	if err != nil {
		return nil, err
	}
	eng, err := NewCell(cfg, CellOptions{Substrate: sub, Server: server, BS: -1})
	if err != nil {
		return nil, err
	}
	users, err := eng.PlaceUsers(make([]int, cfg.NumUsers), nil)
	if err != nil {
		return nil, err
	}
	for _, mu := range users {
		if err := eng.AttachUser(mu); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// newPredictor assembles the demand predictor from the engine's
// configuration (the per-interval cache hit rate is refreshed before
// every forecast pass).
func (s *Simulation) newPredictor() predict.DemandPredictor {
	return predict.DemandPredictor{
		Params:             s.params,
		IntervalS:          s.cfg.IntervalS,
		SwipeGapS:          s.cfg.SwipeGapS,
		MeanVideoDurationS: s.meanDur,
		CyclesPerBit:       edge.DefaultTranscodeModel().CyclesPerBit,
		SegmentS:           s.cfg.SegmentS,
		PrefetchDepth:      s.cfg.prefetchSegments(),
	}
}

// userByID resolves a global user id to its state through byID,
// falling back to a search of the id-sorted users slice for an id
// byID does not cover.
func (s *Simulation) userByID(id int) *user {
	if id >= 0 && id < len(s.byID) {
		return s.byID[id]
	}
	if pos := s.userPos(id); pos >= 0 {
		return s.users[pos]
	}
	return nil
}

// index records u (nil: no user) under id in byID, when byID covers it.
func (s *Simulation) index(id int, u *user) {
	if id >= 0 && id < len(s.byID) {
		s.byID[id] = u
	}
}

// buildUser creates one simulated user: a favorite-category-biased
// preference (weighted like the catalog so News dominates), one of
// four mobility classes, a link to the nearest BS and a cold twin.
// Every random choice — construction included — draws from the user's
// private stream, so creation order never matters.
//
// A non-nil spare is a user no engine holds any more (one that churned
// out, an opened member a checkpoint replaces, a twin exported at the
// last boundary): the new user takes over its storage — the user
// struct, the twin (udt.Twin.Reuse) and the three calibration filters
// — instead of allocating them, and is exactly the user a build
// without a spare makes. A non-nil keep sees the initial serving
// station once the mobility model places the user, before the link
// draws: when it returns false the user is dropped there, before its
// behavior profile, link, twin and filters are built, and buildUser
// returns nil. The station is returned either way.
func (s *Simulation) buildUser(id int, src *parallel.Stream, spare *user, keep func(bs int) bool) (*user, int, error) {
	rng := rand.New(src)
	fav := video.AllCategories()[s.favDist.Sample(rng)]
	pref, perr := behavior.NewRandomPreference(rng, fav, 6)
	if perr != nil {
		return nil, -1, perr
	}
	engagement := 0.5 + 0.5*rng.Float64()
	var mob mobility.Model
	switch id % 4 {
	case 0:
		mob, perr = mobility.NewRandomWaypoint(s.campus, 0.4, 1.2, 90, rng)
	case 1:
		mob, perr = mobility.NewLandmarkWalk(s.campus, 3+rng.Intn(3), 0.8, rng)
	case 2:
		mob, perr = mobility.NewGaussMarkov(s.campus, 0.9, 0.9, 0.2, 0.25, rng)
	default:
		mob = &mobility.Static{P: s.campus.RandomPoint(rng)}
	}
	if perr != nil {
		return nil, -1, perr
	}
	bs, berr := s.nearestBS(mob.Position())
	if berr != nil {
		return nil, -1, berr
	}
	if keep != nil && !keep(bs.ID) {
		return nil, bs.ID, nil
	}
	profile, perr := behavior.NewProfile(pref, engagement)
	if perr != nil {
		return nil, bs.ID, perr
	}
	link, lerr := channel.NewLink(s.params, bs, rng)
	if lerr != nil {
		return nil, bs.ID, lerr
	}
	u := spare
	if u == nil {
		u = &user{}
	}
	twinCfg := udt.Config{HistoryLen: s.cfg.twinHistory()}
	twin := u.twin
	if twin == nil || !twin.Reuse(id, twinCfg) {
		var terr error
		if twin, terr = udt.NewTwin(id, twinCfg); terr != nil {
			return nil, bs.ID, terr
		}
	}
	offset, ewma, persist := u.snrOffset, u.snrEWMA, u.persist
	if offset == nil {
		offset, ewma, persist = new(predict.EWMA), new(predict.EWMA), new(predict.EWMA)
	}
	*offset, *ewma, *persist = predict.EWMA{Alpha: 0.5}, predict.EWMA{Alpha: 0.6}, predict.EWMA{Alpha: 0.3}
	*u = user{
		id: id, src: src, rng: rng, profile: profile, mob: mob, link: link, twin: twin,
		snrOffset: offset, snrEWMA: ewma, persist: persist,
	}
	return u, bs.ID, nil
}

// churnUsers replaces each user with probability ChurnPerInterval by
// a fresh arrival (cold twin, new preference and trajectory) and
// returns the number replaced. The churn decision draws from the
// departing user's own stream and the arrival gets a fresh stream
// keyed by the slot's churn generation, so churn neither perturbs
// other users' randomness nor depends on evaluation order — the bug
// class the old shared-RNG draw had, where a churn decision shifted
// every subsequent user's draws for the rest of the run. The arrival
// is built into the departing user's storage (buildUser's spare), in
// the pool task that owns the slot.
func (s *Simulation) churnUsers(ctx context.Context) (int, error) {
	if s.cfg.ChurnPerInterval <= 0 {
		return 0, nil
	}
	replaced := make([]bool, len(s.users))
	if err := s.pool.ForContext(ctx, len(s.users), func(i int) error {
		old := s.users[i]
		if old.rng.Float64() >= s.cfg.ChurnPerInterval {
			return nil
		}
		gen := old.gen + 1
		src := parallel.NewStream(s.cfg.Seed, streamUser, uint64(old.id), gen)
		u, _, err := s.buildUser(old.id, src, old, nil)
		if err != nil {
			return fmt.Errorf("churn user %d: %w", old.id, err)
		}
		u.gen = gen
		s.users[i] = u
		s.index(u.id, u) // an index-owned slot: ids are unique
		replaced[i] = true
		return nil
	}); err != nil {
		return 0, err
	}
	var n int
	for _, r := range replaced {
		if r {
			n++
		}
	}
	return n, nil
}

// nearestBS resolves the nearest base station to pos, skipping
// stations quarantined by the cluster engine's shared down mask
// (handovers, churn arrivals and prediction anchors all route around
// dark cells). With no mask — the monolithic engine and healthy
// clusters — this is exactly channel.NearestBS.
func (s *Simulation) nearestBS(pos mobility.Point) (*channel.BaseStation, error) {
	return channel.NearestAliveBS(s.stations, s.downBS, pos)
}

// servingDisc is the relative margin of servingDiscsSq: a disc reaches
// (1 − servingDisc) of the way to its station's bisectors. Distances
// and their squares err by a few ulp (~1e-16), far inside the margin.
const servingDisc = 1e-6

// servingDiscsSq returns, for each station, the squared radius of the
// disc around it inside which it is strictly the nearest station: half
// the distance to its closest neighbour, less the servingDisc margin.
// A position at distance D < m/2 from station s, m the distance from s
// to its closest neighbour, lies at least m − D > D from every other
// station by the triangle inequality; with the margin, every other
// station is farther by a relative 2·servingDisc, far beyond rounding,
// so math.Hypot measures s strictly nearest too. A lone station's disc
// is the whole plane; stations sharing a position have none.
func servingDiscsSq(stations []*channel.BaseStation) []float64 {
	out := make([]float64, len(stations))
	for i, a := range stations {
		r := math.Inf(1)
		for j, b := range stations {
			if j != i {
				r = min(r, 0.5*a.Pos.Dist(b.Pos)*(1-servingDisc))
			}
		}
		out[i] = r * r
	}
	return out
}

// keepsServing reports whether bs, a live station, is beyond doubt the
// nearest station to pos — pos lies inside its serving disc — so
// nearestBS would return it; false means only that a search must
// decide. Stations are indexed by id (GridDeploy's ids are their
// indices). A down station, and a NaN or overflowing square, fail the
// test.
func (s *Simulation) keepsServing(bs *channel.BaseStation, pos mobility.Point) bool {
	if bs.ID < len(s.downBS) && s.downBS[bs.ID] {
		return false
	}
	dx, dy := bs.Pos.X-pos.X, bs.Pos.Y-pos.Y
	return float64(dx*dx)+float64(dy*dy) < s.innerSq[bs.ID]
}

// tickChunk is the most ticks collectTicks stages at once: it sizes
// the stack arrays a chunk's receptions, SNRs and twin samples wait
// in, so an interval of up to tickChunk ticks reaches each twin in one
// CollectTicks call. The arrays are zeroed on every user's entry, so
// the chunk covers the default 30-tick interval and no more.
const tickChunk = 32

// collectTicks runs one interval's worth of mobility + channel
// collection into the UDTs, fanning users across the pool (each
// user's tick sequence is self-contained: own mobility model, own
// link, own twin, own random stream). Users hand over to the nearest
// base station as they move. Each chunk of a user's ticks runs in
// three phases:
//
//  1. tick by tick, in the user's stream order: move, hand over to the
//     nearest live station — searched for only when the user has left
//     the serving station's disc (keepsServing) — and draw the tick's
//     fade on the link;
//  2. one batched propagation evaluation of the chunk's SNRs
//     (channel.Link.SNRsInto: one 4-wide Hypot pass over the station
//     distances and one 4-wide Log pass over the path losses and
//     fades, bit-identical to the per-tick formula);
//  3. tick by tick again: the mean SNR and position, the CQI,
//     then the chunk's samples into the twin in one CollectTicks call.
//
// Only phase 1 draws from the user's stream, in the order a per-tick
// loop draws, so the split changes no value.
func (s *Simulation) collectTicks(ctx context.Context) error {
	return s.pool.ForContext(ctx, len(s.users), func(i int) error {
		return s.collectUserTicks(s.users[i], s.cfg.TicksPerInterval)
	})
}

// collectUserTicks runs ticks ticks of one user's collection, chunk by
// chunk, as collectTicks describes.
func (s *Simulation) collectUserTicks(u *user, ticks int) error {
	dt := s.cfg.IntervalS / float64(s.cfg.TicksPerInterval)
	var (
		rx    [tickChunk]channel.Reception
		snr   [tickChunk]float64
		batch [tickChunk]udt.TickSample
	)
	for left := ticks; left > 0; {
		n := min(left, tickChunk)
		left -= n
		for j := range rx[:n] {
			pos, err := u.mob.Advance(dt)
			if err != nil {
				return fmt.Errorf("user %d mobility: %w", u.id, err)
			}
			if !s.keepsServing(u.link.BS(), pos) {
				nearest, err := s.nearestBS(pos)
				if err != nil {
					return err
				}
				if nearest.ID != u.link.BS().ID {
					if err := u.link.Handover(nearest); err != nil {
						return err
					}
				}
			}
			rx[j] = channel.Reception{BS: u.link.BS(), Pos: pos, Fade: u.link.DrawFade()}
		}
		u.link.SNRsInto(snr[:n], rx[:n])
		for j, v := range snr[:n] {
			pos := rx[j].Pos
			u.meanSNR.Add(v)
			u.meanX.Add(pos.X)
			u.meanY.Add(pos.Y)
			batch[j] = udt.TickSample{CQI: channel.CQI(v), X: pos.X, Y: pos.Y}
		}
		if err := u.twin.CollectTicks(batch[:n], u.profile.Pref); err != nil {
			return fmt.Errorf("user %d collect: %w", u.id, err)
		}
	}
	return nil
}

// closeInterval folds the finished interval's observations into each
// user's DT calibration state and clears the per-interval
// accumulators. Pure per-user state, fanned across the pool.
func (s *Simulation) closeInterval() {
	_ = s.pool.For(len(s.users), func(i int) error {
		u := s.users[i]
		s.closeUserInterval(u)
		return nil
	})
}

func (s *Simulation) closeUserInterval(u *user) {
	if u.meanSNR.N() > 0 {
		meanPos := mobility.Point{X: u.meanX.Mean(), Y: u.meanY.Mean()}
		d := u.link.BS().Pos.Dist(meanPos)
		model := s.prop.MeanSNRdB(u.link.BS().TxPowerDBm, d)
		u.snrOffset.Observe(u.meanSNR.Mean() - model)
		u.snrEWMA.Observe(u.meanSNR.Mean())
		if u.havePos >= 1 {
			dx, dy := meanPos.X-u.posPrev.X, meanPos.Y-u.posPrev.Y
			norm := math.Hypot(dx, dy)
			prevNorm := math.Hypot(u.prevDispX, u.prevDispY)
			if norm > 1 && prevNorm > 1 {
				cos := (dx*u.prevDispX + dy*u.prevDispY) / (norm * prevNorm)
				if cos < 0 {
					cos = 0
				}
				u.persist.Observe(cos)
			}
			u.prevDispX, u.prevDispY = dx, dy
		}
		u.posPrev2 = u.posPrev
		u.posPrev = meanPos
		if u.havePos < 2 {
			u.havePos++
		}
	}
	u.meanSNR = stats.OnlineMean{}
	u.meanX = stats.OnlineMean{}
	u.meanY = stats.OnlineMean{}
}

// predictUserSNR forecasts a user's next-interval mean SNR from the
// digital twin: damped linear position extrapolation from the last
// two interval mean positions, the deterministic propagation model at
// the predicted serving BS plus the per-user calibration offset, and
// a fusion with the directly tracked SNR EWMA. The damping (0.5) and
// fusion guard against extrapolation overshoot when users turn at
// waypoints.
func (s *Simulation) predictUserSNR(u *user) float64 {
	// Extrapolation damping = the user's learned velocity persistence
	// (waypoint turners ~0.4-0.6, straight walkers ~1).
	damp := 0.6
	if pEst, ok := u.persist.Predict(); ok {
		damp = pEst
	}
	// The measured quantity is the mean SNR over the interval's path,
	// so integrate the propagation model along the extrapolated path
	// (interval start ≈ posPrev + 0.5·v, interval end ≈ posPrev +
	// 1.5·v, both damped by the learned persistence) instead of
	// evaluating a single point.
	var model float64
	if u.havePos >= 2 {
		dx := damp * (u.posPrev.X - u.posPrev2.X)
		dy := damp * (u.posPrev.Y - u.posPrev2.Y)
		const samples = 6
		var path [samples]channel.Reception
		for k := range path {
			f := 0.5 + float64(k)/float64(samples-1) // 0.5 .. 1.5 intervals ahead
			pt := s.campus.Clamp(mobility.Point{X: u.posPrev.X + f*dx, Y: u.posPrev.Y + f*dy})
			bs, berr := s.nearestBS(pt)
			if berr != nil {
				bs = u.link.BS()
			}
			path[k] = channel.Reception{BS: bs, Pos: pt}
		}
		var snrs [samples]float64
		s.prop.MeanSNRsInto(snrs[:], path[:])
		var sum float64
		for _, v := range snrs {
			sum += v
		}
		model = sum / samples
	} else {
		pos := u.posPrev
		if u.havePos == 0 {
			pos = u.mob.Position()
		}
		bs, berr := s.nearestBS(pos)
		if berr != nil {
			bs = u.link.BS()
		}
		model = s.prop.MeanSNRdB(bs.TxPowerDBm, bs.Pos.Dist(pos))
	}
	offset, okOff := u.snrOffset.Predict()
	if !okOff {
		// No calibration yet: assume mean Rayleigh fading (-2.5 dB).
		return model - 2.5
	}
	modelPred := model + offset
	if ewma, ok := u.snrEWMA.Predict(); ok {
		return 0.8*modelPred + 0.2*ewma
	}
	return modelPred
}

// predictGroupWorstSNR is the group-level DT channel forecast at the
// same coverage statistic the scheduler serves, staged in sc.
func (s *Simulation) predictGroupWorstSNR(g *groupState, sc *groupScratch) float64 {
	sc.snrs = sc.snrs[:0]
	for _, m := range g.members {
		sc.snrs = append(sc.snrs, s.predictUserSNR(s.userByID(m)))
	}
	return stats.TailMeanInPlace(sc.snrs, 2*coverageQuantile)
}

// sessionBufs holds warm-up session buffers (*[]behavior.ViewEvent)
// between users: a pool task takes one, generates its user's session
// into it and puts it back, so the buffers in use are bounded by the
// workers running, not the user count, and the garbage collector may
// drop idle ones.
var sessionBufs = sync.Pool{New: func() any { return new([]behavior.ViewEvent) }}

// warmupBrowse lets every user browse individually for one interval to
// populate the watch/engagement series of the twins. Sessions draw
// from each user's private stream, so the fan-out is deterministic.
func (s *Simulation) warmupBrowse(ctx context.Context) error {
	return s.pool.ForContext(ctx, len(s.users), func(i int) error {
		buf := sessionBufs.Get().(*[]behavior.ViewEvent)
		defer sessionBufs.Put(buf)
		u := s.users[i]
		linkBps := s.params.RateBps(u.meanSNR.Mean()) * float64(s.cfg.NominalRBsPerGroup)
		events, err := behavior.AppendSession((*buf)[:0], s.catalog, u.profile, s.cfg.IntervalS, linkBps, u.rng)
		*buf = events
		if err != nil {
			return fmt.Errorf("user %d session: %w", u.id, err)
		}
		for _, e := range events {
			if _, err := u.twin.CollectView(e.Video.Category, e.WatchS, e.Engagement(), e.Swiped); err != nil {
				return fmt.Errorf("user %d view: %w", u.id, err)
			}
			if err := u.profile.Pref.Update(e.Video.Category, e.Engagement(), 0.05); err != nil {
				return err
			}
		}
		return nil
	})
}

// builtGroup is one constructed multicast group: global member ids
// plus the code-space centroid (nil when the population was too small
// to cluster).
type builtGroup struct {
	ids      []int
	centroid []float64
}

// rebuildGroups runs the two-step construction (or the fixed-K
// baseline) and replaces the groups with the ones it built, each with
// a fresh shared-feed stream. boundary is the number of intervals run
// before the construction: 0 for the initial build, interval+1 for the
// regroup after interval.
func (s *Simulation) rebuildGroups(boundary int) error {
	if len(s.users) == 0 {
		// A cluster cell can be empty between migrations.
		s.groups = nil
		s.prevAssign = nil
		return nil
	}
	built, lastRes, err := s.constructGroups()
	if err != nil {
		return err
	}
	assign := make([]int, len(s.users))
	for i := range assign {
		assign[i] = -1
	}
	for gid, bg := range built {
		for _, id := range bg.ids {
			if pos := s.userPos(id); pos >= 0 {
				assign[pos] = gid
			}
		}
	}
	if s.prevAssign != nil {
		if ri, rerr := grouping.RandIndex(s.prevAssign, assign); rerr == nil {
			s.stability = append(s.stability, ri)
		}
	}
	s.prevAssign = assign
	s.lastResult = lastRes
	// Only the run's last construction has its silhouette read by
	// FinishTrace; score it here, in the step that built it, so the
	// final step costs no more than any other. Earlier constructions
	// are scored only if a checkpoint records them.
	if lastRes != nil && s.lastConstruction(boundary) {
		lastRes.Silhouette()
	}
	s.constructions++
	s.groups = make([]*groupState, len(built))
	for gid, bg := range built {
		src := parallel.NewStream(s.cfg.Seed, streamGroup, cellSalt(s.bs), s.constructions, uint64(gid))
		s.groups[gid] = &groupState{
			id:       gid,
			src:      src,
			rng:      rand.New(src),
			members:  bg.ids,
			centroid: bg.centroid,
		}
	}
	return nil
}

// lastConstruction reports whether a construction after boundary
// intervals is the run's last: no regroup follows it.
func (s *Simulation) lastConstruction(boundary int) bool {
	return boundary+s.cfg.RegroupEvery >= s.cfg.NumIntervals
}

// cellSalt is the stream salt of cell bs: bs + 1, so no two sibling
// cells share a stream. The monolithic engine (bs = -1) is one cell
// over every station and draws cell 0's streams.
func cellSalt(bs int) uint64 { return uint64(max(bs, 0)) + 1 }

// userPos returns the slice position of a global user id, or -1.
func (s *Simulation) userPos(id int) int {
	if id >= 0 && id < len(s.users) && s.users[id].id == id {
		return id
	}
	i := sort.Search(len(s.users), func(i int) bool { return s.users[i].id >= id })
	if i < len(s.users) && s.users[i].id == id {
		return i
	}
	return -1
}

// constructGroups runs the two-step construction over the engine's
// whole population, returning the built groups (global member ids,
// indexed by group id) and the construction's grouping.Result (nil
// when the population is too small to cluster and forms one group).
func (s *Simulation) constructGroups() ([]builtGroup, *grouping.Result, error) {
	if len(s.users) <= s.cfg.Grouping.KMin {
		ids := make([]int, len(s.users))
		for i, u := range s.users {
			ids[i] = u.id
		}
		return []builtGroup{{ids: ids}}, nil, nil
	}
	twins := make([]*udt.Twin, len(s.users))
	for i, u := range s.users {
		twins[i] = u.twin
	}
	var res *grouping.Result
	var err error
	switch {
	case s.cfg.FixedK > 0:
		res, err = s.builder.BuildFixedK(twins, min(s.cfg.FixedK, len(twins)))
	case s.cfg.OracleK:
		var k int
		if k, _, err = s.builder.BestKExhaustive(twins); err == nil {
			res, err = s.builder.BuildFixedK(twins, k)
		}
	default:
		res, err = s.builder.Build(twins)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("group construction: %w", err)
	}
	built := make([]builtGroup, 0, len(res.Groups))
	for _, g := range res.Groups {
		ids := make([]int, len(g.Members))
		for i, m := range g.Members {
			ids[i] = s.users[m].id
		}
		built = append(built, builtGroup{ids: ids, centroid: g.Centroid})
	}
	return built, res, nil
}

// groupWorstSNR returns the coverage SNR the multicast MCS must
// serve: the mean of the worst-tail member SNRs (see
// coverageQuantile), staged in sc.
func (s *Simulation) groupWorstSNR(g *groupState, sc *groupScratch) float64 {
	sc.snrs = sc.snrs[:0]
	for _, m := range g.members {
		sc.snrs = append(sc.snrs, s.userByID(m).meanSNR.Mean())
	}
	return stats.TailMeanInPlace(sc.snrs, 2*coverageQuantile)
}

// abstractGroups rebuilds each group's profile from the twins'
// cumulative view counters. Counters are kept cumulative (not reset)
// so the swiping distributions sharpen over time and remain available
// right after a regroup; the profile folds each member's counters
// without expanding them, so an interval costs O(members) however long
// the run. Groups are disjoint and twins are only read, so the
// abstraction fans across the pool, each group staging its members'
// twins in its scratch.
func (s *Simulation) abstractGroups(ctx context.Context) error {
	s.growScratch()
	return s.pool.ForContext(ctx, len(s.groups), func(gi int) error {
		g := s.groups[gi]
		if len(g.members) == 0 {
			// Emptied by cross-cell migration; skip until refilled.
			return nil
		}
		sc := &s.scratch[gi]
		twins := sc.twins[:0]
		for _, m := range g.members {
			twins = append(twins, s.userByID(m).twin)
		}
		profile, err := predict.BuildGroupProfile(twins, s.catalog, s.cfg.TopNRecommend)
		clear(twins) // hold no twin past the call
		sc.twins = twins
		if err != nil {
			return fmt.Errorf("group %d profile: %w", g.id, err)
		}
		g.profile = profile
		return nil
	})
}

// groupBitrate picks the ladder rung the group can sustain with its
// nominal RB allocation at the forecast worst SNR.
func (s *Simulation) groupBitrate(worstSNRdB float64) video.Representation {
	budget := s.params.RateBps(worstSNRdB) * float64(s.cfg.NominalRBsPerGroup)
	probe := &video.Video{Ladder: video.DefaultLadder()}
	return probe.RepAtMost(budget)
}

// servedVideo is one feed video of a group's interval: the video, the
// interval clock it started at, and the seconds of it delivered — what
// the edge server serves.
type servedVideo struct {
	v                *video.Video
	clock, delivered float64
}

// groupScratch is one group's working set for an interval's stages,
// written only by the group's own pool tasks. The engine keeps one per
// group index and reuses its slices across intervals.
type groupScratch struct {
	// snrs stages the members' SNRs for the coverage statistic.
	snrs []float64
	// served lists the streamed feed in order.
	served []servedVideo
	// draws holds every member's swipe draw on every feed video,
	// video-major: draws[j*len(members)+i] is member i's on served[j].
	// It is the group's region of the engine's draw slab (carveDraws).
	draws []float64
	// views stages one member's views for Twin.CollectViews.
	views []udt.View
	// twins stages the members' twins for the group abstraction.
	twins []*udt.Twin
	// actual is the measured demand; serveInterval fills ComputeCycles.
	actual predict.Demand
}

// growScratch gives every group index a groupScratch.
func (s *Simulation) growScratch() {
	if len(s.scratch) < len(s.groups) {
		s.scratch = append(s.scratch, make([]groupScratch, len(s.groups)-len(s.scratch))...)
	}
}

// watched returns what a member whose swipe draw is draw watches of a
// feed video of durS seconds that starts at clock: the seconds and the
// fraction of the video, both cut at the interval's end.
func (s *Simulation) watched(draw, durS, clock float64) (watchS, frac float64) {
	watchS, frac = draw*durS, draw
	if clock+watchS > s.cfg.IntervalS {
		watchS = s.cfg.IntervalS - clock
		frac = watchS / durS
	}
	return watchS, frac
}

// streamInterval simulates one interval of shared-feed multicast for a
// group into sc: the feed, each member's swipe on each video — folded
// into the member's preference at once and into its twin in one
// CollectViews call at the end — and the delivered traffic. It writes
// only state the group owns (its stream; its members' streams,
// profiles and twins) and reads the catalog, so groups stream
// concurrently; the shared edge server is left to serveInterval.
func (s *Simulation) streamInterval(g *groupState, rep video.Representation, sc *groupScratch) error {
	if g.profile == nil {
		return fmt.Errorf("group %d streamed before abstraction: %w", g.id, ErrConfig)
	}
	catDist, err := stats.NewCategorical(g.profile.Preference)
	if err != nil {
		return err
	}
	sc.served = sc.served[:0]
	var traffic, wasteBits, engagement float64
	clock := 0.0
	recIdx := 0
	for clock < s.cfg.IntervalS {
		// Next feed video: mostly from the recommendation list,
		// occasionally explore by preference-weighted category. Feed
		// selection draws from the group's stream, member swipes from
		// each member's own — no shared generator anywhere.
		var v *video.Video
		if len(g.profile.Recommended) > 0 && g.rng.Float64() < 0.8 {
			v = g.profile.Recommended[recIdx%len(g.profile.Recommended)]
			recIdx++
		} else {
			cat := video.AllCategories()[catDist.Sample(g.rng)]
			var verr error
			v, verr = s.catalog.SampleFromCategory(cat, g.rng)
			if verr != nil {
				v = s.catalog.SamplePopular(g.rng)
			}
		}
		// Each member watches until their own swipe; the BS transmits
		// until the last member swipes.
		var maxFrac float64
		for _, m := range g.members {
			u := s.userByID(m)
			draw, ferr := u.profile.WatchFraction(v.Category, u.rng)
			if ferr != nil {
				return ferr
			}
			sc.draws = append(sc.draws, draw)
			watch, frac := s.watched(draw, v.DurationS, clock)
			if uerr := u.profile.Pref.Update(v.Category, frac, 0.05); uerr != nil {
				return uerr
			}
			engagement += watch
			if frac > maxFrac {
				maxFrac = frac
			}
		}
		tx := maxFrac * v.DurationS
		if clock+tx > s.cfg.IntervalS {
			tx = s.cfg.IntervalS - clock
		}
		// Segment-level delivery: the BS has transmitted the watched
		// prefix rounded up to segment boundaries plus the prefetch
		// window; the overshoot is wasted traffic.
		delivered, waste, perr := segment.Plan(tx, v.DurationS, s.cfg.SegmentS, s.cfg.prefetchSegments())
		if perr != nil {
			return perr
		}
		sc.served = append(sc.served, servedVideo{v: v, clock: clock, delivered: delivered})
		traffic += delivered * rep.BitrateBps
		wasteBits += waste * rep.BitrateBps
		clock += tx + s.cfg.SwipeGapS
	}
	// Every member saw the whole feed: hand each its views in one call.
	n := len(g.members)
	sc.views = slices.Grow(sc.views[:0], len(sc.served))[:len(sc.served)]
	for i, m := range g.members {
		for j, sv := range sc.served {
			watch, frac := s.watched(sc.draws[j*n+i], sv.v.DurationS, sv.clock)
			sc.views[j] = udt.View{Cat: sv.v.Category, WatchS: watch, Engagement: frac, Swiped: frac < 0.999}
		}
		if err := s.userByID(m).twin.CollectViews(sc.views); err != nil {
			return err
		}
	}
	perRB := s.params.RateBps(s.groupWorstSNR(g, sc))
	actualRBs := 0.0
	if perRB > 0 {
		actualRBs = (traffic / s.cfg.IntervalS) / perRB
	}
	sc.actual = predict.Demand{
		RadioRBs:    actualRBs,
		TrafficBits: traffic,
		WasteBits:   wasteBits,
		EngagementS: engagement / float64(n),
	}
	return nil
}

// carveDraws hands each group, in group order, a region of the draw
// slab for a feed of feedCap videos, so the slab is sized by the
// population rather than by every group slot's largest membership.
// feedCap is at least a feed of half-watched videos of mean duration
// and follows the longest feed streamed so far; a feed that outgrows
// its region appends into a private array (the region's capacity ends
// where the next begins).
func (s *Simulation) carveDraws() {
	s.feedCap = max(s.feedCap, int(s.cfg.IntervalS/(s.meanDur/2+max(s.cfg.SwipeGapS, 0))))
	total := 0
	for _, g := range s.groups {
		total += len(g.members) * s.feedCap
	}
	s.draws = slices.Grow(s.draws[:0], total)[:total]
	off := 0
	for gi, g := range s.groups {
		end := off + len(g.members)*s.feedCap
		s.scratch[gi].draws = s.draws[off:off:end]
		off = end
	}
}

// serveInterval replays a streamed group's feed on the shared edge
// server, in feed order, and returns the group's measured demand with
// the transcoding cycles summed in that order.
func (s *Simulation) serveInterval(sc *groupScratch, rep video.Representation) (predict.Demand, error) {
	actual := sc.actual
	for _, sv := range sc.served {
		cy, err := s.server.Serve(sv.v, rep, sv.delivered)
		if err != nil {
			return predict.Demand{}, err
		}
		actual.ComputeCycles += cy
	}
	return actual, nil
}

// WarmupIntervalContext runs a single warm-up interval (collection +
// individual browsing + calibration fold) under ctx. The cluster
// engine steps cells one warm-up interval at a time so twin handover
// can run at every interval boundary. A cancellation that fires
// mid-interval aborts the fan-out and leaves the engine's per-user
// state indeterminate — callers must stop the run (the session layer
// marks itself failed).
func (s *Simulation) WarmupIntervalContext(ctx context.Context) error {
	t0 := s.met.warmup.Start()
	if err := s.collectTicks(ctx); err != nil {
		return err
	}
	if err := s.warmupBrowse(ctx); err != nil {
		return err
	}
	s.closeInterval()
	s.met.warmup.ObserveSince(t0)
	return nil
}

// CollectTicks runs one interval's worth of mobility + channel
// collection (exported for the cluster engine's per-cell stepping).
func (s *Simulation) CollectTicks() error { return s.collectTicks(context.Background()) }

// Close is a no-op kept for callers that pair construction with a
// release: the engine holds no goroutines between calls.
func (s *Simulation) Close() {}

// CloseInterval folds the finished interval's observations into the
// per-user calibration state (exported for the cluster engine).
func (s *Simulation) CloseInterval() { s.closeInterval() }

// Churned reports the number of users replaced by churn so far.
func (s *Simulation) Churned() int { return s.churned }

// Train fits the grouping pipeline on the current population: the
// 1D-CNN compressor, then (unless a K baseline is configured) the
// DDQN K-selection agent. Populations too small to cluster skip the
// agent — there is nothing for it to choose between.
func (s *Simulation) Train() error {
	if len(s.users) == 0 {
		return nil
	}
	t0 := s.met.train.Start()
	twins := make([]*udt.Twin, len(s.users))
	for i, u := range s.users {
		twins[i] = u.twin
	}
	if _, err := s.builder.TrainCompressor(twins, s.cfg.CompressorEpochs); err != nil {
		return fmt.Errorf("train compressor: %w", err)
	}
	if s.cfg.FixedK == 0 && !s.cfg.OracleK && len(s.users) > s.cfg.Grouping.KMax {
		if _, err := s.builder.TrainAgent(twins, s.cfg.AgentEpisodes); err != nil {
			return fmt.Errorf("train agent: %w", err)
		}
	}
	s.met.train.ObserveSince(t0)
	return nil
}

// BuildGroupsContext runs one group construction and the follow-up
// abstraction pass under ctx.
func (s *Simulation) BuildGroupsContext(ctx context.Context) error {
	t0 := s.met.build.Start()
	if err := s.rebuildGroups(0); err != nil {
		return err
	}
	if err := s.abstractGroups(ctx); err != nil {
		return err
	}
	s.met.build.ObserveSince(t0)
	s.met.groups.Set(float64(len(s.groups)))
	return nil
}

// NumGroups reports the current number of multicast groups.
func (s *Simulation) NumGroups() int { return len(s.groups) }

// NewTrace returns an empty trace ready for RunIntervalContext appends.
func NewTrace() *Trace {
	return &Trace{SwipeByGroup: make(map[int]*predict.SwipeDistribution)}
}

// FinishTrace stamps the run-level statistics onto a trace.
func (s *Simulation) FinishTrace(trace *Trace) {
	for _, g := range s.groups {
		if g.profile != nil {
			trace.SwipeByGroup[g.id] = g.profile.Swipe
		}
	}
	trace.K = len(s.groups)
	if s.lastResult != nil {
		trace.Silhouette = s.lastResult.Silhouette()
	}
	trace.CacheHitRate = s.server.Cache().HitRate()
	trace.StabilityByRegroup = append([]float64(nil), s.stability...)
	trace.ChurnedUsers = s.churned
}

// refineComputeForecast replaces the closed-form computing forecast
// with the observed steady-state cycles-per-transmitted-second of the
// ladder level once it has been served (the cache stays warm per
// rung); a sub-top level not yet seen anywhere is predicted as a cold
// transcode of the feed.
func (s *Simulation) refineComputeForecast(d *predict.Demand, rep video.Representation) {
	predTxS := d.TrafficBits / rep.BitrateBps
	topRate := video.DefaultLadder()[len(video.DefaultLadder())-1].BitrateBps
	if tracker, ok := s.cyclesPerTxS[rep.Level]; ok {
		if est, okP := tracker.Predict(); okP {
			d.ComputeCycles = est * predTxS
		}
	} else if rep.BitrateBps < topRate {
		d.ComputeCycles = edge.DefaultTranscodeModel().CyclesPerBit * topRate * predTxS
	} else {
		d.ComputeCycles = 0
	}
}

// RunIntervalContext executes one reservation interval — predict,
// admit, collect, stream, re-abstract, churn, regroup, close —
// appending the interval's records to trace. The interval index drives
// the regroup cadence and the record rows; the cluster engine calls
// this once per cell per interval, then migrates twins between cells.
// A cancellation that fires mid-interval aborts the in-flight fan-out
// and leaves the engine (and any records already appended to trace)
// in an indeterminate state: the caller must discard the trace delta
// and stop stepping, which is what the session layer does.
func (s *Simulation) RunIntervalContext(ctx context.Context, interval int, trace *Trace) error {
	// 1. Predict each group's demand for this interval from the
	//    previous interval's abstraction and channel forecast.
	//    Groups only read shared state here (twins, trackers, the
	//    cache hit rate hoisted below), so the forecasts fan
	//    across the pool; preds is indexed by group id.
	type pendingPred struct {
		demand    *predict.Demand
		snr       float64
		rep       video.Representation
		allocated int
		skip      bool
	}
	preds := make([]pendingPred, len(s.groups))
	s.growScratch()
	tSched := s.met.schedule.Start()
	s.predictor.CacheHitRate = s.server.Cache().HitRate()
	if err := s.pool.ForContext(ctx, len(s.groups), func(gi int) error {
		g := s.groups[gi]
		if len(g.members) == 0 {
			// Emptied by cross-cell migration: nothing to serve.
			preds[gi].skip = true
			return nil
		}
		snr := s.predictGroupWorstSNR(g, &s.scratch[gi])
		rep := s.groupBitrate(snr)
		d, err := s.predictor.Predict(g.profile, rep.BitrateBps, snr)
		if err != nil {
			return fmt.Errorf("interval %d group %d predict: %w", interval, g.id, err)
		}
		// Calibrate the waste forecast with the measured waste
		// per playback second once available.
		if est, ok := s.wastePerPlayS.Predict(); ok {
			playbackS := (d.TrafficBits - d.WasteBits) / rep.BitrateBps
			corrected := est * playbackS * rep.BitrateBps
			d.TrafficBits += corrected - d.WasteBits
			d.WasteBits = corrected
		}
		s.refineComputeForecast(d, rep)
		preds[gi] = pendingPred{demand: d, snr: snr, rep: rep}
		return nil
	}); err != nil {
		return err
	}

	// Admission: reserve from the shared RB budget and clamp each
	// group's rung to what its grant sustains, re-predicting the
	// demand at the granted bitrate.
	if s.sched != nil {
		s.sched.Reset()
		for _, g := range s.groups {
			p := preds[g.id]
			if p.skip {
				continue
			}
			want := int(math.Ceil(p.demand.RadioRBs * (1 + reserveMargin)))
			if want < 1 {
				want = 1
			}
			granted := want
			if free := s.sched.Free(); granted > free {
				granted = free
			}
			if granted > 0 {
				if err := s.sched.Allocate(granted); err != nil {
					return fmt.Errorf("interval %d group %d admit: %w", interval, g.id, err)
				}
			}
			p.allocated = granted
			budget := s.params.RateBps(p.snr) * float64(granted)
			capped := (&video.Video{Ladder: video.DefaultLadder()}).RepAtMost(budget)
			if capped.Level != p.rep.Level {
				p.rep = capped
				s.predictor.CacheHitRate = s.server.Cache().HitRate()
				d, perr := s.predictor.Predict(g.profile, capped.BitrateBps, p.snr)
				if perr != nil {
					return fmt.Errorf("interval %d group %d re-predict: %w", interval, g.id, perr)
				}
				s.refineComputeForecast(d, capped)
				p.demand = d
			}
			preds[g.id] = p
		}
	}
	s.met.schedule.ObserveSince(tSched)

	// 2. Simulate the interval: channel/mobility collection, then
	//    multicast streaming with real swipes. Groups stream
	//    concurrently, one pool task each, touching only what the
	//    group owns (its stream, its members' streams, profiles and
	//    twins) and the read-only catalog. Shared state is touched
	//    after the fan-out, group by group in id order: each group's
	//    feed is served on the edge cache in feed order, then the
	//    calibration EWMAs observe it and its trace row is appended.
	tTicks := s.met.tickCollect.Start()
	if err := s.collectTicks(ctx); err != nil {
		return err
	}
	s.met.tickCollect.ObserveSince(tTicks)
	tStream := s.met.stream.Start()
	s.carveDraws()
	if err := s.pool.ForContext(ctx, len(s.groups), func(gi int) error {
		if preds[gi].skip {
			return nil
		}
		g := s.groups[gi]
		if err := s.streamInterval(g, preds[gi].rep, &s.scratch[gi]); err != nil {
			return fmt.Errorf("interval %d group %d stream: %w", interval, g.id, err)
		}
		return nil
	}); err != nil {
		return err
	}
	for gi, g := range s.groups {
		p := preds[gi]
		if p.skip {
			continue
		}
		actual, err := s.serveInterval(&s.scratch[gi], p.rep)
		if err != nil {
			return fmt.Errorf("interval %d group %d stream: %w", interval, g.id, err)
		}
		s.feedCap = max(s.feedCap, len(s.scratch[gi].served))
		if playbackBits := actual.TrafficBits - actual.WasteBits; playbackBits > 0 {
			playbackS := playbackBits / p.rep.BitrateBps
			s.wastePerPlayS.Observe(actual.WasteBits / playbackS / p.rep.BitrateBps)
		}
		if txS := actual.TrafficBits / p.rep.BitrateBps; txS > 0 {
			tracker, ok := s.cyclesPerTxS[p.rep.Level]
			if !ok {
				cyc, cerr := predict.NewEWMA(0.5)
				if cerr != nil {
					return cerr
				}
				tracker = cyc
				s.cyclesPerTxS[p.rep.Level] = tracker
			}
			tracker.Observe(actual.ComputeCycles / txS)
		}
		trace.Records = append(trace.Records, tracebin.Record{BS: s.bs, GroupIntervalRecord: GroupIntervalRecord{
			Interval:           interval,
			GroupID:            g.id,
			Size:               len(g.members),
			PredictedRBs:       p.demand.RadioRBs,
			ActualRBs:          actual.RadioRBs,
			AllocatedRBs:       p.allocated,
			PredictedCycles:    p.demand.ComputeCycles,
			ActualCycles:       actual.ComputeCycles,
			PredictedBits:      p.demand.TrafficBits,
			ActualBits:         actual.TrafficBits,
			PredictedWasteBits: p.demand.WasteBits,
			ActualWasteBits:    actual.WasteBits,
			ActualEngagementS:  actual.EngagementS,
			WorstSNRdB:         p.snr,
			BitrateBps:         p.rep.BitrateBps,
		}})
	}
	s.met.stream.ObserveSince(tStream)

	// 3. Re-abstract group profiles from this interval's data.
	tAbs := s.met.abstract.Start()
	if err := s.abstractGroups(ctx); err != nil {
		return err
	}
	s.met.abstract.ObserveSince(tAbs)

	// 4. User churn, then periodic regrouping to track dynamics.
	tChurn := s.met.churn.Start()
	churned, cerr := s.churnUsers(ctx)
	if cerr != nil {
		return cerr
	}
	s.churned += churned
	s.met.churn.ObserveSince(tChurn)
	s.met.churned.Add(uint64(churned))
	if (interval+1)%s.cfg.RegroupEvery == 0 && interval+1 < s.cfg.NumIntervals {
		tRegroup := s.met.regroup.Start()
		if err := s.rebuildGroups(interval + 1); err != nil {
			return err
		}
		if err := s.abstractGroups(ctx); err != nil {
			return err
		}
		s.met.regroup.ObserveSince(tRegroup)
	}

	s.closeInterval()
	s.met.intervals.Inc()
	s.met.groups.Set(float64(len(s.groups)))
	return nil
}
