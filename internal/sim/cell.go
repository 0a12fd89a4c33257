// This file holds engine construction and the twin-migration API.
// Every engine is a cell: a Simulation that shares the run's substrate
// (map, station deployment, catalog, pool) but owns its user slice,
// edge cache, grouping pipeline and derived random streams. A cluster
// cell serves one base station's coverage area; the monolithic engine
// is the one cell over every station. The cluster engine (package
// cluster) steps cells through the exported stage methods and moves
// user twins between cells with DetachUser/AttachUser at interval
// boundaries.

package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/edge"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/radio"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

// Substrate is what every engine of one run shares: the campus map,
// its station deployment, the read-only video catalog and the pool
// that fans the engines' per-user and per-group stages.
type Substrate struct {
	Campus   *mobility.Map
	Stations []*channel.BaseStation
	Catalog  *video.Catalog
	Pool     *parallel.Pool
}

// NewSubstrate validates cfg and builds the substrate of its run. The
// catalog draws from its own stream derived from the seed, so every
// engine and every partition of a run builds the same one.
func NewSubstrate(cfg Config) (Substrate, error) {
	if err := cfg.Validate(); err != nil {
		return Substrate{}, err
	}
	c := cfg.Defaulted()
	campus := mobility.CampusMap()
	stations, err := channel.GridDeploy(campus, c.NumBS, c.TxPowerDBm)
	if err != nil {
		return Substrate{}, err
	}
	catalog, err := video.NewCatalog(video.CatalogConfig{
		NumVideos:       c.CatalogSize,
		CategoryWeights: c.CategoryWeights,
	}, rand.New(rand.NewSource(parallel.DeriveSeed(c.Seed, streamCatalog))))
	if err != nil {
		return Substrate{}, err
	}
	return Substrate{Campus: campus, Stations: stations, Catalog: catalog, Pool: parallel.New(c.Parallelism)}, nil
}

// NewServer builds an edge server — cache of cacheBytes plus
// transcoder — over the substrate's catalog, prewarmed with its most
// popular tenth.
func (sub Substrate) NewServer(cacheBytes int64) (*edge.Server, error) {
	return edge.NewServer(cacheBytes, edge.DefaultTranscodeModel(), sub.Catalog, sub.Catalog.Size()/10)
}

// CellOptions places an engine on a substrate. Every field except
// DownBS is required.
type CellOptions struct {
	Substrate
	// Server is the cell's private edge cache + transcoder.
	Server *edge.Server
	// BS is the cell id: the index of the cell's station in Stations,
	// or -1 for the monolithic engine, the one cell over every
	// station. It tags the cell's trace rows and decorrelates its
	// derived random streams (builder weights, group feed selection)
	// from its siblings'.
	BS int
	// DownBS, when non-nil, is the cluster engine's shared quarantine
	// mask over station ids (one slice aliased by every sibling cell):
	// stations marked down take no handovers, churn arrivals or
	// prediction anchors. Optional; the engine writes it only between
	// interval fan-outs.
	DownBS []bool
}

// NewCell constructs an engine with zero users on the substrate given
// in opts. Every random stream is derived from (Seed, tag,
// cellSalt(BS), ...), so sibling cells never share a generator, the
// cluster trace is independent of shard scheduling, and the
// monolithic engine draws exactly what cell 0 draws.
func NewCell(cfg Config, opts CellOptions) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case len(opts.Stations) == 0:
		return nil, fmt.Errorf("cell without stations: %w", ErrConfig)
	case opts.Campus == nil || opts.Catalog == nil || opts.Server == nil || opts.Pool == nil:
		return nil, fmt.Errorf("cell substrate incomplete: %w", ErrConfig)
	case opts.BS < -1 || opts.BS >= len(opts.Stations):
		return nil, fmt.Errorf("cell bs %d of %d stations: %w", opts.BS, len(opts.Stations), ErrConfig)
	}
	c := cfg.Defaulted()
	params := channel.DefaultParams()
	params.FadingRho = c.FadingRho
	if err := params.Validate(); err != nil {
		return nil, err
	}

	var durSum float64
	for _, v := range opts.Catalog.Videos {
		durSum += v.DurationS
	}
	meanDur := durSum / float64(opts.Catalog.Size())

	cnt := parallel.NewCounting(rand.NewSource(parallel.DeriveSeed(c.Seed, streamBuilder, cellSalt(opts.BS))).(rand.Source64))
	builder, err := grouping.New(c.Grouping, rand.New(cnt))
	if err != nil {
		return nil, err
	}
	builder.SetPool(opts.Pool)

	wastePerPlayS, err := predict.NewEWMA(0.3)
	if err != nil {
		return nil, err
	}
	var sched *radio.Scheduler
	if c.RBBudget > 0 {
		// Each cell owns its own RB budget.
		sched, err = radio.NewScheduler(c.RBBudget)
		if err != nil {
			return nil, err
		}
	}

	eng := &Simulation{
		cfg:           c,
		sched:         sched,
		cnt:           cnt,
		pool:          opts.Pool,
		bs:            opts.BS,
		params:        params,
		prop:          params.Propagation(),
		stations:      opts.Stations,
		downBS:        opts.DownBS,
		campus:        opts.Campus,
		catalog:       opts.Catalog,
		server:        opts.Server,
		builder:       builder,
		meanDur:       meanDur,
		cyclesPerTxS:  make(map[int]*predict.EWMA),
		wastePerPlayS: wastePerPlayS,
		byID:          make([]*user, c.NumUsers),
	}
	eng.predictor = eng.newPredictor()
	return eng, nil
}

// User is an opaque handle to one simulated user — twin, mobility
// model, link and calibration state — detached from a cell for
// cross-shard migration. The handle carries the user's private random
// stream, so its draw sequence is unaffected by the move. It is one
// pointer wide and passed by value, so a handover allocates nothing
// for it; the zero User is no user.
type User struct{ u *user }

// ID returns the user's global id.
func (m User) ID() int { return m.u.id }

// ServingBS returns the id of the base station the user's link is
// currently attached to.
func (m User) ServingBS() int { return m.u.link.BS().ID }

// Position returns the user's current map position.
func (m User) Position() mobility.Point { return m.u.mob.Position() }

// SpawnUsers creates fresh users with the global ids 0..n-1 (churn
// generation 0) on the pool, without attaching them to this engine.
// Creation touches only the shared substrate and each user's own
// derived stream, so it does not matter which cell spawns: the
// cluster engine spawns the whole population through one cell and
// attaches each user to the cell of its initial serving base station.
func (s *Simulation) SpawnUsers(n int) ([]User, error) {
	out := make([]User, n)
	err := s.pool.For(n, func(id int) error {
		u, err := s.newUser(id, parallel.NewStream(s.cfg.Seed, streamUser, uint64(id), 0))
		if err != nil {
			return fmt.Errorf("spawn user %d: %w", id, err)
		}
		out[id] = User{u: u}
		return nil
	})
	return out, err
}

// NumUsers reports the engine's current population.
func (s *Simulation) NumUsers() int { return len(s.users) }

// UserIDs returns the sorted global ids of the current population.
func (s *Simulation) UserIDs() []int {
	out := make([]int, len(s.users))
	for i, u := range s.users {
		out[i] = u.id
	}
	return out
}

// ServingBSOf returns the serving base station id of the user with
// the given global id, or -1 if the user is not in this engine.
func (s *Simulation) ServingBSOf(id int) int {
	u := s.userByID(id)
	if u == nil {
		return -1
	}
	return u.link.BS().ID
}

// Member returns the handle of the user with the given global id
// without detaching it, so the cluster engine can route a twin (see
// User.Position) and pick its destination group (NearestGroup) before
// moving it; false if the user is not in this engine.
func (s *Simulation) Member(id int) (User, bool) {
	u := s.userByID(id)
	return User{u: u}, u != nil
}

// DetachUser removes the user with the given global id from the
// engine — population and multicast group — and returns the handle.
func (s *Simulation) DetachUser(id int) (User, bool) {
	pos := s.userPos(id)
	if pos < 0 {
		return User{}, false
	}
	u := s.users[pos]
	s.users = append(s.users[:pos], s.users[pos+1:]...)
	s.index(id, nil)
	for _, g := range s.groups {
		for i, m := range g.members {
			if m == id {
				g.members = append(g.members[:i], g.members[i+1:]...)
				break
			}
		}
	}
	// Membership changed under the stability tracker's feet; the next
	// construction starts a fresh baseline.
	s.prevAssign = nil
	return User{u: u}, true
}

// AttachUser inserts a migrated (or freshly spawned) user into the
// engine, keeping the population sorted by global id. If multicast
// groups exist, the twin is handed to the group with the nearest
// code-space centroid (the per-shard analogue of the paper's group
// update on user dynamics); when no centroid applies it joins the
// smallest group, matching how churn arrivals inherit a slot's
// membership in the monolithic engine. It is AttachUserTo with the
// group NearestGroup picks at the time of the call.
func (s *Simulation) AttachUser(mu User) error {
	return s.AttachUserTo(mu, s.NearestGroup(mu))
}

// AttachUserTo is AttachUser with the nearest-centroid group already
// chosen by NearestGroup, so the cluster engine's handover pass can
// encode its incoming twins concurrently, one goroutine per
// destination cell, before its sequential attach loop. A negative
// group — no centroid applies — joins the smallest group as it stands
// at the time of the call (ties to the lowest id): that fallback reads
// live membership, so it is never precomputed.
func (s *Simulation) AttachUserTo(mu User, group int) error {
	if mu.u == nil {
		return fmt.Errorf("attach nil user: %w", ErrConfig)
	}
	if group >= len(s.groups) {
		return fmt.Errorf("attach user %d to group %d of %d: %w", mu.u.id, group, len(s.groups), ErrConfig)
	}
	u := mu.u
	pos := sort.Search(len(s.users), func(i int) bool { return s.users[i].id >= u.id })
	if pos < len(s.users) && s.users[pos].id == u.id {
		return fmt.Errorf("attach duplicate user %d: %w", u.id, ErrConfig)
	}
	s.users = append(s.users, nil)
	copy(s.users[pos+1:], s.users[pos:])
	s.users[pos] = u
	s.index(u.id, u)
	s.prevAssign = nil
	if len(s.groups) == 0 {
		return nil
	}
	if group < 0 {
		group = s.smallestGroup()
	}
	s.groups[group].members = append(s.groups[group].members, u.id)
	return nil
}

// NearestGroup returns the multicast group whose code-space centroid
// is nearest to the twin's code under this cell's encoder, or -1 when
// none applies: no groups, no centroid of the code's dimension, or a
// twin the encoder cannot read. It reads only the twin, the encoder
// weights and the centroids — not membership — so its answer holds for
// as long as the groups are not rebuilt. Calls on one engine must not
// overlap: they share the encoder's scratch.
func (s *Simulation) NearestGroup(mu User) int {
	if len(s.groups) == 0 || mu.u == nil {
		return -1
	}
	codes, err := s.builder.Codes([]*udt.Twin{mu.u.twin})
	if err != nil || len(codes) != 1 {
		return -1
	}
	best, bestD := -1, 0.0
	for _, g := range s.groups {
		if len(g.centroid) != len(codes[0]) {
			continue
		}
		var d float64
		for i, c := range g.centroid {
			diff := codes[0][i] - c
			d += diff * diff
		}
		if best == -1 || d < bestD {
			best, bestD = g.id, d
		}
	}
	return best
}

// smallestGroup returns the group with the fewest members (ties to the
// lowest id); the engine must have groups.
func (s *Simulation) smallestGroup() int {
	best := 0
	for _, g := range s.groups[1:] {
		if len(g.members) < len(s.groups[best].members) {
			best = g.id
		}
	}
	return best
}
