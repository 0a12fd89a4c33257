// Package cluster is the simulation engine of every session (the
// paper's Fig. 1 architecture at campus/city scale): the map is
// partitioned into coverage cells, each a set of base stations, and
// each cell runs its own full digital-twin pipeline (UDT pool,
// grouping, abstraction, demand forecast, multicast streaming) against
// its own edge cache. New makes one cell per station — the Voronoi
// regions of the channel.GridDeploy stations — and NewWhole one cell
// over every station: the monolithic engine, the degenerate partition
// in which no twin ever changes cell. Cells step concurrently on the
// internal/parallel pool, one task per cell.
//
// Between reservation intervals a deterministic handover pass
// migrates user twins — UDT state, calibration offsets and the
// user's private random stream — to the cell of their new nearest
// base station, and attaches each migrated twin to the multicast
// group with the nearest code-space centroid.
//
// Determinism: every cell derives its random streams from (Seed,
// tag, cell id + 1, ...), users own global-id-keyed streams that
// travel with their twin, and the handover pass applies each cell's
// moves as if one at a time in global user-id order (one pool task per
// cell, each writing only its own cell). The merged ClusterTrace is
// therefore bit-identical for any Parallelism — the pool width is a
// scheduling decision, never a semantic one.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/edge"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/obs"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/tracebin"
)

// ErrConfig indicates an invalid cluster configuration.
var ErrConfig = errors.New("cluster: invalid config")

// Config parameterizes a cluster run.
type Config struct {
	// Sim is the base scenario. NumBS sets the number of coverage
	// cells; CacheBytes is split evenly across the per-cell edge
	// caches so total cache capacity matches the monolithic engine.
	Sim sim.Config
	// Faults schedules deterministic cell failures (see
	// faultinject.CellFault and CellPlan). Empty means no injection.
	// A firing fault quarantines its cell and evacuates its twins; the
	// cell returns at ReviveAt when that is not negative. At most one
	// fault per cell.
	Faults []faultinject.CellFault
}

// Defaulted returns the configuration with every default filled in,
// so callers stepping the engine see the values it runs with.
func (c Config) Defaulted() Config {
	c.Sim = c.Sim.Defaulted()
	return c
}

// Unscheduled returns the defaulted configuration with the one field
// that only schedules the run, Sim.Parallelism, reset to its default
// 0. It reaches neither the trace nor any state a checkpoint carries,
// so this is what checkpoint headers fingerprint: a run checkpointed
// at one pool width resumes at any other.
func (c Config) Unscheduled() Config {
	d := c.Defaulted()
	d.Sim.Parallelism = 0
	return d
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	d := c.Defaulted()
	seen := make(map[int]bool, len(d.Faults))
	for _, f := range d.Faults {
		switch {
		case f.Cell < 0 || f.Cell >= d.Sim.NumBS:
			return fmt.Errorf("fault cell %d of %d: %w", f.Cell, d.Sim.NumBS, ErrConfig)
		case f.FailAt < 0 || f.FailAt >= d.Sim.NumIntervals:
			return fmt.Errorf("fault at interval %d of %d: %w", f.FailAt, d.Sim.NumIntervals, ErrConfig)
		case f.ReviveAt >= 0 && (f.ReviveAt <= f.FailAt || f.ReviveAt >= d.Sim.NumIntervals):
			return fmt.Errorf("revival at interval %d for failure at %d of %d: %w",
				f.ReviveAt, f.FailAt, d.Sim.NumIntervals, ErrConfig)
		case seen[f.Cell]:
			return fmt.Errorf("cell %d scheduled to fail twice: %w", f.Cell, ErrConfig)
		}
		seen[f.Cell] = true
	}
	return nil
}

// Record is one (interval, cell, group) row of a cluster trace; BS is
// the base station / coverage cell that served the group.
type Record = tracebin.Record

// CellStats summarizes one coverage cell at the end of a run.
type CellStats struct {
	BS           int     `json:"bs"`
	Users        int     `json:"users"`
	K            int     `json:"k"`
	Silhouette   float64 `json:"silhouette"`
	CacheHitRate float64 `json:"cacheHitRate"`
	ChurnedUsers int     `json:"churnedUsers"`
	// AttachedTwins counts twins migrated into the cell over the
	// whole run (initial placement excluded).
	AttachedTwins int `json:"attachedTwins"`
	// Down reports whether the cell was still quarantined when the
	// run ended.
	Down bool `json:"down,omitempty"`
	// EvacuatedTwins counts twins evacuated out of this cell by
	// failure recovery.
	EvacuatedTwins int `json:"evacuatedTwins,omitempty"`
}

// Trace is the merged output of a cluster run. Records are sorted by
// (interval, cell, group) regardless of scheduling.
type Trace struct {
	Records []Record
	Cells   []CellStats
	// Handovers counts cross-cell twin migrations over the run.
	Handovers int
	// ChurnedUsers counts users replaced across all cells.
	ChurnedUsers int
	// CacheHitRate is the lookup-weighted aggregate over all per-cell
	// edge caches.
	CacheHitRate float64
	// CellFailures and Revivals count injected cell failures and the
	// revivals that returned coverage; EvacuatedTwins counts twins
	// moved off dying cells; DegradedIntervals counts scheduling
	// intervals that ran with at least one cell quarantined. All zero
	// in healthy runs.
	CellFailures      int
	Revivals          int
	EvacuatedTwins    int
	DegradedIntervals int
}

// SetCells stamps the per-cell end-of-run statistics onto the trace,
// with their run-level merges: the churn sum, and the cache hit rate
// weighted by lookups (hits and misses summed over every cell).
func (t *Trace) SetCells(cells []CellStats, hits, misses int) {
	t.Cells = cells
	for _, c := range cells {
		t.ChurnedUsers += c.ChurnedUsers
	}
	if total := hits + misses; total > 0 {
		t.CacheHitRate = float64(hits) / float64(total)
	}
}

// RadioAccuracy returns the paper's prediction-accuracy metric over
// all cells' radio demand.
func (t *Trace) RadioAccuracy() (float64, error) {
	var acc stats.OnlineMAPE
	for _, r := range t.Records {
		acc.Add(r.PredictedRBs, r.ActualRBs)
	}
	return acc.Accuracy()
}

// ComputeAccuracy returns the volume accuracy over computing demand.
func (t *Trace) ComputeAccuracy() (float64, error) {
	var acc stats.OnlineVolume
	for _, r := range t.Records {
		acc.Add(r.PredictedCycles, r.ActualCycles)
	}
	return acc.Accuracy()
}

// cellState is the engine's bookkeeping for one coverage cell.
type cellState struct {
	id int
	// bs is the tag the cell's rows and stats carry: its id, or -1 for
	// the NewWhole engine's one cell.
	bs     int
	eng    *sim.Simulation
	server *edge.Server
	trace  *sim.Trace
	built  bool
	// migratedIn counts twins handed over into this cell (initial
	// placement excluded).
	migratedIn int
	// down marks the cell quarantined: its station takes no links,
	// its pipeline runs no intervals, and the handover pass refuses
	// to route twins to it.
	down bool
	// evacuated counts twins evacuated out of this cell over the run.
	evacuated int
	// ckpt holds the cell's framed sim sections from the last
	// WriteState; kept, so every checkpoint after the first encodes
	// into memory the cell already owns.
	ckpt checkpoint.Enc
}

// Engine is a configured cluster instance.
type Engine struct {
	cfg   Config
	sub   sim.Substrate
	cells []*cellState
	// The engine's unit is a set of owned cells: it builds, steps,
	// checkpoints and conserves twins over exactly those. New owns every
	// cell (the degenerate partition); NewWorker owns one contiguous
	// block of a larger partition, and cells[c] is nil for every cell c
	// outside it.
	owned []int  // owned cell ids, ascending
	mask  []bool // mask[c] reports ownership of cell c
	local int    // twins currently living in owned cells
	// cellOf[bs] is the cell serving station bs: the identity for New
	// and NewWorker, cell 0 for every station under NewWhole. Placement
	// and the handover plan route a twin by it, so a twin moves only
	// when its serving station changes cell.
	cellOf []int
	// whole marks the NewWhole engine, whose one cell is tagged BS -1.
	whole bool
	// owner[id] is the cell holding user id's twin as far as this
	// partition knows: exact for its own twins, and for the others the
	// last un-owned cell it saw them in — so a twin is local exactly
	// when mask[owner[id]].
	owner     []int
	handovers int
	trained   bool
	// plan is PlanHandovers' buffer and twins its arena, the encoded
	// twins the plan's moves out of the partition alias; sorted is
	// ApplyHandovers' id-ordered copy of a batch that arrives out of
	// order and users its twin per move; splices (per cell) and touched
	// are relocate's buckets. All are kept so the handover pass
	// allocates nothing proportional to population.
	plan    []Handover
	twins   checkpoint.Enc
	sorted  []Handover
	users   []sim.User
	splices []cellSplice
	touched []int
	// spares are users earlier ApplyHandovers passes exported out of the
	// partition, held by no cell, oldest first: the next pass decodes
	// its imports into their storage. maxImports is the largest import
	// batch a pass applied, which bounds how many unused spares stay. A
	// restarted worker starts with none.
	spares     []sim.User
	maxImports int
	// Failure model (see failure.go): the fault schedule in firing
	// order, the quarantine mask over stations shared with every cell's
	// sim engine (written only between fan-outs; stations are cells
	// here, since faults exist only under the identity table, and
	// NewWhole has none), and the degradation counters.
	faults            []faultinject.CellFault
	down              []bool
	cellsDown         int
	failures          int
	revivals          int
	evacuated         int
	degradedIntervals int

	// Observability mounted by SetMetrics; nil-safe when absent.
	metHandover   *obs.Stage
	metHandovers  *obs.Counter
	metEvacuation *obs.Stage
	metCellsDown  *obs.Gauge
	metEvacuated  *obs.Counter
	metDegraded   *obs.Counter
	metFailures   *obs.Counter
	metRevivals   *obs.Counter
}

// New constructs a cluster engine that owns every cell, one per
// station, and places the initial population: the partition (0, 1).
func New(cfg Config) (*Engine, error) { return placed(newPartition(cfg, 0, 1, false)) }

// NewWhole constructs the monolithic engine: the cluster engine over
// one cell that covers every station. The cell is tagged BS -1, holds
// the whole CacheBytes and the whole population, and never plans a
// handover, since every station maps to it. It has no cell faults.
func NewWhole(cfg sim.Config) (*Engine, error) {
	return placed(newPartition(Config{Sim: cfg}, 0, 1, true))
}

// NewUnplaced constructs the engine New does without placing the
// population: every cell is built and holds no user, and the owner map
// says nothing yet. It is the engine a resume restores a checkpoint
// into — ReadState gives each cell the users the checkpoint's owner map
// assigns it — so a resume builds every user once, where an open
// followed by ReadState would build each twice.
func NewUnplaced(cfg Config) (*Engine, error) { return newPartition(cfg, 0, 1, false) }

// NewWholeUnplaced is NewUnplaced for the engine NewWhole constructs.
func NewWholeUnplaced(cfg sim.Config) (*Engine, error) {
	return newPartition(Config{Sim: cfg}, 0, 1, true)
}

// newPartition constructs the engine for slot index of a count-way
// partition, with one cell per station or, whole, one cell over all of
// them. Only the owned cells are built, each exactly as every other
// partition would build it — a cell draws only from the shared
// substrate and its own derived streams — and none holds a user yet:
// place gives an opened engine its population, ReadState a resumed
// one.
func newPartition(cfg Config, index, count int, whole bool) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Defaulted()

	sub, err := sim.NewSubstrate(d.Sim)
	if err != nil {
		return nil, err
	}

	numCells := d.Sim.NumBS
	cellOf := make([]int, d.Sim.NumBS)
	if whole {
		numCells = 1
	} else {
		for bs := range cellOf {
			cellOf[bs] = bs
		}
	}
	var owned []int
	mask := make([]bool, numCells)
	for c := 0; c < numCells; c++ {
		if WorkerForCell(c, numCells, count) == index {
			owned = append(owned, c)
			mask[c] = true
		}
	}

	cellBytes := d.Sim.CacheBytes / int64(numCells)
	if cellBytes <= 0 {
		cellBytes = d.Sim.CacheBytes
	}
	// One quarantine mask over every station, aliased by every cell's
	// sim engine, so a failure routes handovers and churn arrivals
	// around the dark station in every sibling cell at once. Cells build
	// on the pool: each draws only from its own derived streams and
	// reads the substrate, and metrics are mounted later, serially, by
	// SetMetrics.
	var down []bool
	if !whole {
		down = make([]bool, numCells)
	}
	cells := make([]*cellState, numCells)
	if err := sub.Pool.For(len(owned), func(i int) error {
		c := owned[i]
		server, err := sub.NewServer(cellBytes)
		if err != nil {
			return err
		}
		bs := c
		if whole {
			bs = -1
		}
		eng, err := sim.NewCell(d.Sim, sim.CellOptions{Substrate: sub, Server: server, BS: bs, DownBS: down})
		if err != nil {
			return fmt.Errorf("cell %d: %w", c, err)
		}
		cells[c] = &cellState{id: c, bs: bs, eng: eng, server: server, trace: sim.NewTrace()}
		return nil
	}); err != nil {
		return nil, err
	}

	// Faults fire in deterministic (FailAt, Cell) order regardless of
	// how the schedule was written down.
	faults := append([]faultinject.CellFault(nil), d.Faults...)
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].FailAt != faults[j].FailAt {
			return faults[i].FailAt < faults[j].FailAt
		}
		return faults[i].Cell < faults[j].Cell
	})

	return &Engine{
		cfg:     d,
		sub:     sub,
		cells:   cells,
		owned:   owned,
		mask:    mask,
		cellOf:  cellOf,
		whole:   whole,
		owner:   make([]int, d.Sim.NumUsers),
		splices: make([]cellSplice, numCells),
		faults:  faults,
		down:    down,
	}, nil
}

// placed places the initial population of an engine newPartition just
// constructed (see place).
func placed(e *Engine, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	if err := e.place(); err != nil {
		return nil, err
	}
	return e, nil
}

// place prewarms the owned cells' caches (ReadState restores a resumed
// engine's) and places the population on the pool (a user draws only
// from its private stream, whichever cell places it): every user is
// placed, so the owner map covers all of them, but only the users whose
// initial serving station's cell this partition owns are built whole,
// and each joins that cell. A partition that owns every cell keeps
// every user, and needs no filter.
func (e *Engine) place() error {
	for _, ci := range e.owned {
		e.sub.Prewarm(e.cells[ci].server)
	}
	var keep func(bs int) bool
	if len(e.owned) < len(e.cells) {
		keep = func(bs int) bool { return e.mask[e.cellOf[bs]] }
	}
	serving := make([]int, len(e.owner))
	users, err := e.cells[e.owned[0]].eng.PlaceUsers(serving, keep)
	if err != nil {
		return err
	}
	for id, bs := range serving {
		c := e.cellOf[bs]
		e.owner[id] = c
		if !e.mask[c] {
			continue
		}
		if err := e.cells[c].eng.AttachUser(users[id]); err != nil {
			return err
		}
		e.local++
	}
	return nil
}

// eachCell runs fn over every owned cell, one pool task per cell. fn
// must touch only the given cell's state. Cancellation is cooperative:
// once ctx is done no further cell starts, and ctx.Err() is returned.
func (e *Engine) eachCell(ctx context.Context, fn func(*cellState) error) error {
	return e.sub.Pool.ForContext(ctx, len(e.owned), func(k int) error {
		return fn(e.cells[e.owned[k]])
	})
}

// lateTrain fits cells that gained their first users after the
// cluster trained: their pipelines are still untrained, so fit them
// on the twins that just arrived before the first construction.
func (e *Engine) lateTrain() error {
	if !e.trained {
		return nil
	}
	for _, ci := range e.owned {
		c := e.cells[ci]
		if !c.built && c.eng.NumUsers() > 0 {
			if err := c.eng.Train(); err != nil {
				return fmt.Errorf("cell %d late train: %w", c.id, err)
			}
			if err := c.eng.BuildGroupsContext(context.Background()); err != nil {
				return fmt.Errorf("cell %d late construction: %w", c.id, err)
			}
			c.built = true
		}
	}
	return nil
}

// Close lets go of the encoders the cells keep for checkpoints and of
// the handover plan's twin arena; the engine and its cells hold no
// goroutines between calls.
func (e *Engine) Close() {
	for _, ci := range e.owned {
		e.cells[ci].ckpt = checkpoint.Enc{}
	}
	e.twins = checkpoint.Enc{}
}

// SetMetrics mounts reg on the cluster: the interval/handover stage
// timer and handover counter on the engine itself, and every cell's
// engine under a cell="<id>" label, so per-cell stage histograms and
// cache counters identify the straggler cell directly. The NewWhole
// engine, which has no handovers or faults to count, mounts only its
// cell's metrics, unlabeled. Call before stepping; a nil reg is a
// no-op.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if e.whole {
		e.cells[0].eng.SetMetrics(reg)
		return
	}
	e.metHandover = reg.Stage("interval/handover")
	e.metHandovers = reg.Counter("dtmsvs_handovers_total", "Cross-cell twin migrations.")
	e.metEvacuation = reg.Stage("interval/evacuation")
	e.metCellsDown = reg.Gauge("dtmsvs_cells_down", "Coverage cells currently quarantined by failure injection.")
	e.metEvacuated = reg.Counter("dtmsvs_evacuated_twins_total", "Twins evacuated from failed cells.")
	e.metDegraded = reg.Counter("dtmsvs_degraded_intervals_total", "Scheduling intervals run with at least one cell down.")
	e.metFailures = reg.Counter("dtmsvs_cell_failures_total", "Injected cell failures fired.")
	e.metRevivals = reg.Counter("dtmsvs_cell_revivals_total", "Quarantined cells returned to service.")
	for _, ci := range e.owned {
		e.cells[ci].eng.SetMetrics(reg, obs.Label{Name: "cell", Value: strconv.Itoa(ci)})
	}
}

// Handovers reports twin migrations out of owned cells so far; summed
// over a partition this is the single-process handover counter.
func (e *Engine) Handovers() int { return e.handovers }

// NumUsers reports the twins currently living in owned cells.
func (e *Engine) NumUsers() int { return e.local }

// Config returns the engine's fully defaulted configuration.
func (e *Engine) Config() Config { return e.cfg }

// Churned reports the users replaced by churn so far, summed over the
// owned cells.
func (e *Engine) Churned() int {
	var n int
	for _, ci := range e.owned {
		n += e.cells[ci].eng.Churned()
	}
	return n
}

// SetRetainRecords does nothing: the engine never retains rows. The
// benchmark harness's cluster probe still calls it.
func (e *Engine) SetRetainRecords(bool) {}

// warmupCells runs one warm-up interval over the owned cells.
func (e *Engine) warmupCells(ctx context.Context) error {
	return e.eachCell(ctx, func(c *cellState) error {
		if c.down || c.eng.NumUsers() == 0 {
			return nil
		}
		if err := c.eng.WarmupIntervalContext(ctx); err != nil {
			return fmt.Errorf("cell %d warmup: %w", c.id, err)
		}
		return nil
	})
}

// WarmupStep runs one warm-up interval across all cells followed by
// the twin-handover pass, so cells train on the populations they will
// actually serve. Call it Config.Sim.WarmupIntervals times before
// TrainAndBuild.
func (e *Engine) WarmupStep(ctx context.Context) error {
	if err := e.warmupCells(ctx); err != nil {
		return err
	}
	return e.migrate()
}

// TrainAndBuild fits every populated owned cell's grouping pipeline
// and runs the initial group construction. Cells that are empty now
// but gain users later are trained lazily by the handover pass.
func (e *Engine) TrainAndBuild(ctx context.Context) error {
	if err := e.eachCell(ctx, func(c *cellState) error {
		if c.down || c.eng.NumUsers() == 0 {
			return nil
		}
		if err := c.eng.Train(); err != nil {
			return fmt.Errorf("cell %d train: %w", c.id, err)
		}
		if err := c.eng.BuildGroupsContext(ctx); err != nil {
			return fmt.Errorf("cell %d construction: %w", c.id, err)
		}
		c.built = true
		return nil
	}); err != nil {
		return err
	}
	e.trained = true
	return nil
}

// stepCells runs one reservation interval over the owned cells —
// concurrently: predict, collect, stream, abstract, churn, regroup —
// and returns the interval's records in (cell, group) order.
// Cells append into their own per-interval buffers, so the
// concatenation in cell-id order is the same (interval, cell, group)
// ordering the whole-run trace carries.
func (e *Engine) stepCells(ctx context.Context, interval int) ([]Record, error) {
	// Scheduled cell faults fire at the boundary, before the interval
	// fans out: revivals restore coverage, failures quarantine the
	// cell and evacuate its twins.
	if err := e.applyFaults(interval); err != nil {
		return nil, err
	}
	if e.cellsDown > 0 {
		e.degradedIntervals++
		e.metDegraded.Inc()
	}
	if err := e.eachCell(ctx, func(c *cellState) error {
		if c.down || c.eng.NumUsers() == 0 {
			return nil
		}
		if err := c.eng.RunIntervalContext(ctx, interval, c.trace); err != nil {
			return fmt.Errorf("cell %d: %w", c.id, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	n := 0
	for _, ci := range e.owned {
		n += len(e.cells[ci].trace.Records)
	}
	out := make([]Record, 0, n)
	for _, ci := range e.owned {
		c := e.cells[ci]
		out = append(out, c.trace.Records...)
		// The cell buffer only ever holds the current interval; recycle
		// its capacity for the next step.
		c.trace.Records = c.trace.Records[:0]
	}
	return out, nil
}

// StepInterval runs one reservation interval followed by the
// twin-handover pass, and returns the interval's merged records.
func (e *Engine) StepInterval(ctx context.Context, interval int) ([]Record, error) {
	out, err := e.stepCells(ctx, interval)
	if err != nil {
		return nil, err
	}
	if err := e.migrate(); err != nil {
		return nil, err
	}
	return out, nil
}

// FinishStats finalizes the owned cells and returns their end-of-run
// statistics in cell-id order plus the raw cache counts — a
// partition's contribution to the merged Trace.
func (e *Engine) FinishStats() (cells []CellStats, hits, misses int) {
	for _, ci := range e.owned {
		c := e.cells[ci]
		c.eng.FinishTrace(c.trace)
		h, m := c.server.Cache().Counts()
		hits += h
		misses += m
		cells = append(cells, CellStats{
			BS:             c.bs,
			Users:          c.eng.NumUsers(),
			K:              c.trace.K,
			Silhouette:     c.trace.Silhouette,
			CacheHitRate:   c.trace.CacheHitRate,
			ChurnedUsers:   c.trace.ChurnedUsers,
			AttachedTwins:  c.migratedIn,
			Down:           c.down,
			EvacuatedTwins: c.evacuated,
		})
	}
	return cells, hits, misses
}

// WholeTrace returns a NewWhole engine's run-level fields as its cell
// stamps them now, with no rows: StepInterval returned those.
func (e *Engine) WholeTrace() *sim.Trace {
	tr := sim.NewTrace()
	e.cells[0].eng.FinishTrace(tr)
	return tr
}

// Finish merges the per-cell statistics into a cluster trace with no
// rows: StepInterval returned those.
func (e *Engine) Finish() *Trace {
	tr := &Trace{
		Handovers:         e.handovers,
		CellFailures:      e.failures,
		Revivals:          e.revivals,
		EvacuatedTwins:    e.evacuated,
		DegradedIntervals: e.degradedIntervals,
	}
	tr.SetCells(e.FinishStats())
	return tr
}
