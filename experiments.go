package dtmsvs

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"dtmsvs/internal/predict"
	"dtmsvs/internal/qoe"
	"dtmsvs/internal/reserve"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/video"
)

// ErrExperiment indicates an experiment could not be evaluated.
var ErrExperiment = errors.New("dtmsvs: experiment failed")

// runSession steps s through every interval, then closes it, honoring
// ctx at every interval boundary — every experiment wrapper routes its
// runs through here, so a cancelled ctx aborts a sweep between
// intervals instead of after a whole run.
func runSession(ctx context.Context, s Session) error {
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// runTrace executes one scenario on the monolithic engine.
func runTrace(ctx context.Context, cfg Config) (*Trace, error) {
	s, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := runSession(ctx, s); err != nil {
		return nil, err
	}
	return s.Trace(), nil
}

// Fig3aResult is the reproduction of Fig. 3(a): the cumulative
// swiping probability per category of the News-dominant multicast
// group ("multicast group 1" in the paper).
type Fig3aResult struct {
	// GroupID of the News-dominant group.
	GroupID int
	// CDF[c][i] is the cumulative swiping probability of category c
	// at watch fraction (i+1)/len(CDF[c]).
	CDF [NumCategories][]float64
	// ExpectedWatchFraction per category (News highest, Game lowest).
	ExpectedWatchFraction [NumCategories]float64
}

// newsDominantGroup picks the group whose News expected watch
// fraction exceeds its Game expected watch fraction by the largest
// margin — the paper's "group 1" archetype. Ties go to the lowest
// group id.
func newsDominantGroup(tr *Trace) (int, *SwipeDistribution, error) {
	bestID, bestMargin := -1, math.Inf(-1)
	var bestDist *SwipeDistribution
	for _, id := range slices.Sorted(maps.Keys(tr.SwipeByGroup)) {
		d := tr.SwipeByGroup[id]
		eNews, err := d.ExpectedWatchFraction(News)
		if err != nil {
			return 0, nil, err
		}
		eGame, err := d.ExpectedWatchFraction(Game)
		if err != nil {
			return 0, nil, err
		}
		if margin := eNews - eGame; margin > bestMargin {
			bestID, bestMargin, bestDist = id, margin, d
		}
	}
	if bestID < 0 {
		return 0, nil, fmt.Errorf("no groups in trace: %w", ErrExperiment)
	}
	return bestID, bestDist, nil
}

// RunFig3a reproduces Fig. 3(a) on the given scenario.
func RunFig3a(ctx context.Context, cfg Config) (*Fig3aResult, error) {
	tr, err := runTrace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return Fig3aFromTrace(tr)
}

// Fig3aFromTrace extracts the Fig. 3(a) artifact from an existing
// trace (avoids re-running the simulation when both panels are
// needed).
func Fig3aFromTrace(tr *Trace) (*Fig3aResult, error) {
	id, dist, err := newsDominantGroup(tr)
	if err != nil {
		return nil, err
	}
	out := &Fig3aResult{GroupID: id}
	for i, c := range video.AllCategories() {
		cdf := make([]float64, len(dist.CDF[i]))
		copy(cdf, dist.CDF[i])
		out.CDF[i] = cdf
		e, eerr := dist.ExpectedWatchFraction(c)
		if eerr != nil {
			return nil, eerr
		}
		out.ExpectedWatchFraction[i] = e
	}
	return out, nil
}

// Fig3bResult is the reproduction of Fig. 3(b): predicted vs actual
// radio resource demand of the News-dominant group, plus the
// headline prediction accuracy (paper: 95.04 %).
type Fig3bResult struct {
	GroupID int
	// Predicted and Actual RB demand per reservation interval.
	Predicted, Actual []float64
	// Accuracy is 1 − MAPE over the group's series.
	Accuracy float64
	// OverallAccuracy is 1 − MAPE over all groups.
	OverallAccuracy float64
}

// RunFig3b reproduces Fig. 3(b) on the given scenario.
func RunFig3b(ctx context.Context, cfg Config) (*Fig3bResult, error) {
	tr, err := runTrace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return Fig3bFromTrace(tr)
}

// Fig3bFromTrace extracts the Fig. 3(b) artifact from a trace.
func Fig3bFromTrace(tr *Trace) (*Fig3bResult, error) {
	id, _, err := newsDominantGroup(tr)
	if err != nil {
		return nil, err
	}
	pred, actual := tr.GroupSeries(id)
	if len(pred) == 0 {
		return nil, fmt.Errorf("group %d has no records: %w", id, ErrExperiment)
	}
	var groupAcc stats.OnlineMAPE
	for i := range pred {
		groupAcc.Add(pred[i], actual[i])
	}
	acc, err := groupAcc.Accuracy()
	if err != nil {
		return nil, err
	}
	overall, err := tr.RadioAccuracy()
	if err != nil {
		return nil, err
	}
	return &Fig3bResult{GroupID: id, Predicted: pred, Actual: actual, Accuracy: acc, OverallAccuracy: overall}, nil
}

// ComputeDemandResult is experiment E1: predicted vs actual
// transcoding demand across all groups.
type ComputeDemandResult struct {
	Predicted, Actual []float64
	// VolumeAccuracy is 1 − Σ|err|/Σactual.
	VolumeAccuracy float64
}

// RunComputeDemand runs experiment E1 on the scenario.
func RunComputeDemand(ctx context.Context, cfg Config) (*ComputeDemandResult, error) {
	tr, err := runTrace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &ComputeDemandResult{}
	for _, r := range tr.Records {
		out.Predicted = append(out.Predicted, r.PredictedCycles)
		out.Actual = append(out.Actual, r.ActualCycles)
	}
	acc, err := tr.ComputeAccuracy()
	if err != nil {
		return nil, err
	}
	out.VolumeAccuracy = acc
	return out, nil
}

// GroupingVariant labels one arm of the grouping ablation (E2).
type GroupingVariant struct {
	Name string
	// FixedK > 0 bypasses the DDQN.
	FixedK int
	// UseCNN toggles the 1D-CNN compressor.
	UseCNN bool
	// PerBS constructs groups under each base station (Fig. 1
	// architecture) instead of campus-wide: the arm runs on the
	// cluster engine, one cell per BS.
	PerBS bool
	// OracleK replaces the DDQN with an exhaustive K scan (the
	// classical silhouette-max baseline).
	OracleK bool
}

// GroupingAblationRow is one arm's outcome. For a PerBS arm, K is the
// sum of the cells' K and Silhouette the users-weighted mean of the
// cells' silhouettes (ClusterTrace.Cells).
type GroupingAblationRow struct {
	Variant       GroupingVariant
	K             int
	Silhouette    float64
	RadioAccuracy float64
}

// RunGroupingAblation runs experiment E2: the DDQN-selected grouping
// against fixed-K and raw-feature baselines on the same scenario.
func RunGroupingAblation(ctx context.Context, cfg Config, variants []GroupingVariant) ([]GroupingAblationRow, error) {
	if len(variants) == 0 {
		variants = []GroupingVariant{
			{Name: "ddqn+cnn", UseCNN: true},
			{Name: "ddqn+raw", UseCNN: false},
			{Name: "ddqn+perbs", UseCNN: true, PerBS: true},
			{Name: "oracle-k", UseCNN: true, OracleK: true},
			{Name: "fixed-k2", FixedK: 2, UseCNN: true},
			{Name: "fixed-k4", FixedK: 4, UseCNN: true},
			{Name: "fixed-k8", FixedK: 8, UseCNN: true},
		}
	}
	rows := make([]GroupingAblationRow, 0, len(variants))
	for _, v := range variants {
		c := cfg
		c.FixedK = v.FixedK
		c.Grouping.UseCNN = v.UseCNN
		c.OracleK = v.OracleK
		row, err := runGroupingArm(ctx, c, v.PerBS)
		if err != nil {
			return rows, fmt.Errorf("variant %q: %w", v.Name, err)
		}
		row.Variant = v
		rows = append(rows, row)
	}
	return rows, nil
}

// runGroupingArm runs one E2 arm, campus-wide on the monolithic engine
// or per BS on the cluster engine, and scores it.
func runGroupingArm(ctx context.Context, cfg Config, perBS bool) (GroupingAblationRow, error) {
	var row GroupingAblationRow
	var tr interface{ RadioAccuracy() (float64, error) }
	if perBS {
		s, err := OpenCluster(ClusterConfig{Sim: cfg})
		if err != nil {
			return row, err
		}
		if err := runSession(ctx, s); err != nil {
			return row, err
		}
		ct := s.Trace()
		users := 0
		for _, c := range ct.Cells {
			row.K += c.K
			row.Silhouette += float64(c.Users) * c.Silhouette
			users += c.Users
		}
		if users > 0 {
			row.Silhouette /= float64(users)
		}
		tr = ct
	} else {
		mt, err := runTrace(ctx, cfg)
		if err != nil {
			return row, err
		}
		row.K, row.Silhouette = mt.K, mt.Silhouette
		tr = mt
	}
	acc, err := tr.RadioAccuracy()
	if err != nil {
		return row, fmt.Errorf("accuracy: %w", err)
	}
	row.RadioAccuracy = acc
	return row, nil
}

// UsersSweepRow is one point of experiment E3 (accuracy vs user
// count).
type UsersSweepRow struct {
	Users           int
	RadioAccuracy   float64
	ComputeAccuracy float64
	K               int
}

// RunAccuracyVsUsers runs experiment E3.
func RunAccuracyVsUsers(ctx context.Context, cfg Config, userCounts []int) ([]UsersSweepRow, error) {
	if len(userCounts) == 0 {
		userCounts = []int{50, 100, 200, 400}
	}
	rows := make([]UsersSweepRow, 0, len(userCounts))
	for _, n := range userCounts {
		c := cfg
		c.NumUsers = n
		tr, err := runTrace(ctx, c)
		if err != nil {
			return rows, fmt.Errorf("users=%d: %w", n, err)
		}
		acc, err := tr.RadioAccuracy()
		if err != nil {
			return rows, err
		}
		cacc, err := tr.ComputeAccuracy()
		if err != nil {
			cacc = math.NaN()
		}
		rows = append(rows, UsersSweepRow{Users: n, RadioAccuracy: acc, ComputeAccuracy: cacc, K: tr.K})
	}
	return rows, nil
}

// ChurnRow is one point of experiment E10: accuracy and grouping
// stability under user churn.
type ChurnRow struct {
	// ChurnPerInterval is the per-interval replacement probability.
	ChurnPerInterval float64
	RadioAccuracy    float64
	// MeanStability is the mean Rand index between consecutive group
	// constructions (1 = identical partitions).
	MeanStability float64
	ChurnedUsers  int
}

// RunAccuracyVsChurn runs experiment E10: sweep the user churn rate
// and measure prediction accuracy and multicast-group stability —
// the "frequent and accurate multicast group updates" regime the
// paper motivates.
func RunAccuracyVsChurn(ctx context.Context, cfg Config, churnRates []float64) ([]ChurnRow, error) {
	if len(churnRates) == 0 {
		churnRates = []float64{0, 0.02, 0.05, 0.1}
	}
	rows := make([]ChurnRow, 0, len(churnRates))
	for _, rate := range churnRates {
		c := cfg
		c.ChurnPerInterval = rate
		tr, err := runTrace(ctx, c)
		if err != nil {
			return rows, fmt.Errorf("churn=%v: %w", rate, err)
		}
		acc, err := tr.RadioAccuracy()
		if err != nil {
			return rows, err
		}
		row := ChurnRow{ChurnPerInterval: rate, RadioAccuracy: acc, ChurnedUsers: tr.ChurnedUsers}
		if len(tr.StabilityByRegroup) > 0 {
			var sum float64
			for _, s := range tr.StabilityByRegroup {
				sum += s
			}
			row.MeanStability = sum / float64(len(tr.StabilityByRegroup))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SeedStats summarizes a metric across independent seeds.
type SeedStats struct {
	Mean, Std, Min, Max float64
	Seeds               int
}

// RunRadioAccuracyMultiSeed runs the scenario across seeds and
// aggregates the radio prediction accuracy — the statistically honest
// version of the paper's single 95.04 % figure.
func RunRadioAccuracyMultiSeed(ctx context.Context, cfg Config, seeds []int64) (*SeedStats, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	var o stats.Online
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		tr, err := runTrace(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		acc, err := tr.RadioAccuracy()
		if err != nil {
			return nil, fmt.Errorf("seed %d accuracy: %w", seed, err)
		}
		o.Add(acc)
		if acc < mn {
			mn = acc
		}
		if acc > mx {
			mx = acc
		}
	}
	return &SeedStats{Mean: o.Mean(), Std: o.Std(), Min: mn, Max: mx, Seeds: o.N()}, nil
}

// ReservationRow is one arm of experiment E7: how a reservation
// policy fares on the measured radio-demand series.
type ReservationRow struct {
	Policy        string
	Waste         float64
	Deficit       float64
	ViolationRate float64
	Utilization   float64
}

// RunReservation runs experiment E7 — the paper's motivating use
// case: reserve radio resources per interval from the scheme's
// prediction and compare against static peak provisioning and a
// history-only adaptive policy.
func RunReservation(ctx context.Context, cfg Config, margin float64) ([]ReservationRow, error) {
	tr, err := runTrace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Per-group series replayed per policy, aggregated over groups in
	// ascending id so the float sums do not depend on map order.
	groups := map[int][][2]float64{}
	for _, r := range tr.Records {
		groups[r.GroupID] = append(groups[r.GroupID], [2]float64{r.PredictedRBs, r.ActualRBs})
	}
	ids := slices.Sorted(maps.Keys(groups))
	mkPolicies := func() ([]reserve.Policy, error) {
		ph, perr := reserve.NewPredictiveHeadroom(margin)
		if perr != nil {
			return nil, perr
		}
		eh, eerr := reserve.NewEWMAHeadroom(0.4, margin)
		if eerr != nil {
			return nil, eerr
		}
		return []reserve.Policy{ph, &reserve.PeakProvisioning{Safety: 1 + margin}, eh}, nil
	}
	probe, err := mkPolicies()
	if err != nil {
		return nil, err
	}
	rows := make([]ReservationRow, len(probe))
	for pi := range probe {
		agg := ReservationRow{Policy: probe[pi].Name()}
		var intervals int
		var violSum float64
		var reservedActualRatio float64
		var groupsScored int
		for _, id := range ids {
			series := groups[id]
			ps, perr := mkPolicies()
			if perr != nil {
				return nil, perr
			}
			pred := make([]float64, len(series))
			actual := make([]float64, len(series))
			for i, pa := range series {
				pred[i], actual[i] = pa[0], pa[1]
			}
			rep, rerr := reserve.Evaluate(ps[pi], pred, actual)
			if rerr != nil {
				return nil, rerr
			}
			agg.Waste += rep.Waste
			agg.Deficit += rep.Deficit
			violSum += rep.ViolationRate * float64(rep.Intervals)
			intervals += rep.Intervals
			reservedActualRatio += rep.Utilization
			groupsScored++
		}
		if intervals == 0 || groupsScored == 0 {
			return nil, fmt.Errorf("no reservation intervals scored: %w", ErrExperiment)
		}
		agg.ViolationRate = violSum / float64(intervals)
		agg.Utilization = reservedActualRatio / float64(groupsScored)
		rows[pi] = agg
	}
	return rows, nil
}

// WasteRow is one point of experiment E8: the over-provisioning
// caused by swiping under segment prefetching, at one prefetch depth.
type WasteRow struct {
	PrefetchDepth int
	// WasteShare is wasted bits / delivered bits over the run.
	WasteShare float64
	// AggregateRatio is Σpredicted waste / Σactual waste (1 = perfect
	// volume forecast).
	AggregateRatio float64
	// RadioAccuracy of the run (waste feeds the traffic forecast).
	RadioAccuracy float64
}

// RunWasteVsPrefetch runs experiment E8: sweep the prefetch depth and
// measure how much multicast traffic the group's swiping behavior
// wastes — the paper's motivating over-provisioning effect — and how
// well the swipe-CDF-based forecast captures it.
func RunWasteVsPrefetch(ctx context.Context, cfg Config, depths []int) ([]WasteRow, error) {
	if len(depths) == 0 {
		depths = []int{0, 1, 2, 4, 8}
	}
	rows := make([]WasteRow, 0, len(depths))
	for _, depth := range depths {
		c := cfg
		c.PrefetchDepth = depth
		if depth == 0 {
			c.PrefetchDepth = -1 // the config treats 0 as "use default"
		}
		tr, err := runTrace(ctx, c)
		if err != nil {
			return rows, fmt.Errorf("depth=%d: %w", depth, err)
		}
		var wasteSum, bitsSum, predWasteSum float64
		for _, r := range tr.Records {
			wasteSum += r.ActualWasteBits
			bitsSum += r.ActualBits
			predWasteSum += r.PredictedWasteBits
		}
		acc, err := tr.RadioAccuracy()
		if err != nil {
			return rows, err
		}
		row := WasteRow{PrefetchDepth: depth, RadioAccuracy: acc}
		if bitsSum > 0 {
			row.WasteShare = wasteSum / bitsSum
		}
		if wasteSum > 0 {
			row.AggregateRatio = predWasteSum / wasteSum
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// QoEBudgetRow is one point of experiment E9: experienced quality at
// one shared radio budget.
type QoEBudgetRow struct {
	// RBBudget is the shared per-interval budget (0 = unlimited).
	RBBudget int
	// MeanQoE is the mean per-(group, interval) QoE score.
	MeanQoE float64
	// MeanBitrateBps actually streamed.
	MeanBitrateBps float64
	// UnderGrantRate is the fraction of records whose admission grant
	// fell below the measured demand.
	UnderGrantRate float64
}

// RunQoEVsBudget runs experiment E9: sweep the shared RB budget and
// measure how admission cuts propagate into experienced quality —
// the end-to-end payoff of accurate demand prediction.
func RunQoEVsBudget(ctx context.Context, cfg Config, budgets []int) ([]QoEBudgetRow, error) {
	if len(budgets) == 0 {
		budgets = []int{0, 12, 8, 5, 3}
	}
	rows := make([]QoEBudgetRow, 0, len(budgets))
	for _, budget := range budgets {
		c := cfg
		c.RBBudget = budget
		tr, err := runTrace(ctx, c)
		if err != nil {
			return rows, fmt.Errorf("budget=%d: %w", budget, err)
		}
		if len(tr.Records) == 0 {
			return rows, fmt.Errorf("budget=%d produced no records: %w", budget, ErrExperiment)
		}
		row := QoEBudgetRow{RBBudget: budget}
		prevRate := map[int]float64{}
		var qoeSum, rateSum float64
		var underGrants int
		for _, r := range tr.Records {
			q, qerr := qoe.ScoreInterval(qoe.GroupInterval{
				BitrateBps:     r.BitrateBps,
				PrevBitrateBps: prevRate[r.GroupID],
				EngagementS:    r.ActualEngagementS,
			})
			if qerr != nil {
				return rows, qerr
			}
			qoeSum += q
			rateSum += r.BitrateBps
			prevRate[r.GroupID] = r.BitrateBps
			if budget > 0 && float64(r.AllocatedRBs) < r.ActualRBs {
				underGrants++
			}
		}
		n := float64(len(tr.Records))
		row.MeanQoE = qoeSum / n
		row.MeanBitrateBps = rateSum / n
		row.UnderGrantRate = float64(underGrants) / n
		rows = append(rows, row)
	}
	return rows, nil
}

// PredictorRow is one arm of experiment E4: the DT scheme against
// history-only series predictors on the same measured demand series.
type PredictorRow struct {
	Name     string
	Accuracy float64
}

// RunPredictorBaselines runs experiment E4. The DT scheme's accuracy
// comes from the trace itself; each baseline forecasts interval t's
// actual demand from the measured series up to t−1.
func RunPredictorBaselines(ctx context.Context, cfg Config) ([]PredictorRow, error) {
	tr, err := runTrace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	dtAcc, err := tr.RadioAccuracy()
	if err != nil {
		return nil, err
	}
	rows := []PredictorRow{{Name: "dt-scheme", Accuracy: dtAcc}}

	// Collect per-group actual series, folded in ascending group id so
	// the accuracies do not depend on map order.
	groups := map[int][]float64{}
	for _, r := range tr.Records {
		groups[r.GroupID] = append(groups[r.GroupID], r.ActualRBs)
	}
	ids := slices.Sorted(maps.Keys(groups))

	mkBaselines := func() ([]predict.SeriesPredictor, error) {
		ma, merr := predict.NewMovingAverage(3)
		if merr != nil {
			return nil, merr
		}
		ew, eerr := predict.NewEWMA(0.4)
		if eerr != nil {
			return nil, eerr
		}
		return []predict.SeriesPredictor{&predict.LastValue{}, ma, ew}, nil
	}
	probe, err := mkBaselines()
	if err != nil {
		return nil, err
	}
	for bi := range probe {
		var fold stats.OnlineMAPE
		forecasts := 0
		for _, id := range ids {
			bs, berr := mkBaselines()
			if berr != nil {
				return nil, berr
			}
			b := bs[bi]
			for _, x := range groups[id] {
				if p, ok := b.Predict(); ok {
					fold.Add(p, x)
					forecasts++
				}
				b.Observe(x)
			}
		}
		if forecasts == 0 {
			return nil, fmt.Errorf("baseline %q produced no forecasts: %w", probe[bi].Name(), ErrExperiment)
		}
		acc, aerr := fold.Accuracy()
		if aerr != nil {
			return nil, aerr
		}
		rows = append(rows, PredictorRow{Name: probe[bi].Name(), Accuracy: acc})
	}
	return rows, nil
}
