// This file holds engine construction and the twin-migration API.
// Every engine is a cell: a Simulation that shares the run's substrate
// (map, station deployment, catalog, pool) but owns its user slice,
// edge cache, grouping pipeline and derived random streams. The
// cluster engine (package cluster) is the only one that runs cells in
// a session: one per base station's coverage area, or, for the
// monolithic engine, one cell (BS -1) over every station. It steps
// cells through the exported stage methods and moves user twins
// between cells at interval boundaries: per cell, one NearestGroups
// batch picks the arrivals' groups and one Splice takes the
// departures and arrivals.

package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/edge"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/radio"
	"dtmsvs/internal/stats"
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
// transcoder — with its cache empty, as a cell a checkpoint restores
// needs it. A fresh cell's is prewarmed (see Prewarm).
func (sub Substrate) NewServer(cacheBytes int64) (*edge.Server, error) {
	return edge.NewServer(cacheBytes, edge.DefaultTranscodeModel())
}

// Prewarm fills server's cache with the catalog's most popular tenth:
// the cache a fresh cell starts with.
func (sub Substrate) Prewarm(server *edge.Server) {
	server.Prewarm(sub.Catalog.TopN(sub.Catalog.Size() / 10))
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
// cluster trace is independent of scheduling, and the
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

	favDist, err := stats.NewCategorical(c.CategoryWeights)
	if err != nil {
		return nil, err
	}
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
		innerSq:       servingDiscsSq(opts.Stations),
		campus:        opts.Campus,
		catalog:       opts.Catalog,
		favDist:       favDist,
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
// cross-cell migration. The handle carries the user's private random
// stream, so its draw sequence is unaffected by the move. It is one
// pointer wide and passed by value, so a handover allocates nothing
// for it; the zero User is no user.
type User struct{ u *user }

// ID returns the user's global id.
func (m User) ID() int { return m.u.id }

// Position returns the user's current map position.
func (m User) Position() mobility.Point { return m.u.mob.Position() }

// PlaceUsers creates the users with the global ids 0..len(serving)-1
// (churn generation 0) on the pool, without attaching them to this
// engine, and writes each user's initial serving station into
// serving[id]. Every user draws its preference, profile and mobility
// model from its own derived stream and is placed at the station
// nearest its start, so it does not matter which cell places the
// population. Only the users whose station keep accepts (every user
// when keep is nil) are built whole — link, twin and calibration
// filters — and returned at their ids; the others stop at placement,
// their entries the zero User. The cluster engine places the
// population through one owned cell, keeping the users whose initial
// cell it owns.
//
// The kept users are built in place into one newUsers slab sized to
// them, so a call allocates per kind of storage, not per user: no user
// costs an allocation of its own for its struct, stream, random
// source, preference, profile, model, link, twin or filters. With a
// keep, a first pass places every user on scratch storage (placeAll)
// to learn which to keep.
func (s *Simulation) PlaceUsers(serving []int, keep func(bs int) bool) ([]User, error) {
	ids := make([]int, 0, len(serving))
	if keep == nil {
		for id := range serving {
			ids = append(ids, id)
		}
	} else {
		if err := s.placeAll(serving); err != nil {
			return nil, err
		}
		for id, bs := range serving {
			if keep(bs) {
				ids = append(ids, id)
			}
		}
	}
	sl := s.newUsers(ids)
	out := make([]User, len(serving))
	err := s.pool.For(len(ids), func(k int) error {
		id, u := ids[k], &sl.users[k]
		if err := s.buildUser(u, id, 0, sl.twinBuf(k)); err != nil {
			return fmt.Errorf("place user %d: %w", id, err)
		}
		serving[id] = u.link.BS().ID
		out[id] = User{u: u}
		return nil
	})
	return out, err
}

// placeAll writes every user's initial serving station into serving,
// placing each (placeUser) on scratch storage: one user of each
// mobility class per block of placeBlock users.
func (s *Simulation) placeAll(serving []int) error {
	const placeBlock = 256
	return s.pool.For((len(serving)+placeBlock-1)/placeBlock, func(b int) error {
		scratch := s.newUsers([]int{0, 1, 2, 3})
		for id := b * placeBlock; id < min((b+1)*placeBlock, len(serving)); id++ {
			bs, err := s.placeUser(&scratch.users[id%4], id, 0)
			if err != nil {
				return fmt.Errorf("place user %d: %w", id, err)
			}
			serving[id] = bs.ID
		}
		return nil
	})
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
// User.Position) and pick its destination group (NearestGroups) before
// moving it; false if the user is not in this engine.
func (s *Simulation) Member(id int) (User, bool) {
	u := s.userByID(id)
	return User{u: u}, u != nil
}

// DetachUser removes the user with the given global id from the
// engine — population and multicast group — and returns the handle:
// Splice with one departure.
func (s *Simulation) DetachUser(id int) (User, bool) {
	u := s.userByID(id)
	if u == nil {
		return User{}, false
	}
	one := [1]int{id}
	if s.Splice(one[:], nil, nil) != nil {
		return User{}, false
	}
	return User{u: u}, true
}

// AttachUser inserts a migrated (or freshly spawned) user into the
// engine, keeping the population sorted by global id. If multicast
// groups exist, the twin is handed to the group with the nearest
// code-space centroid (the per-cell analogue of the paper's group
// update on user dynamics); when no centroid applies it joins the
// smallest group, matching how churn arrivals inherit a slot's
// membership in the monolithic engine. It is Splice with one arrival,
// its group picked by NearestGroups.
func (s *Simulation) AttachUser(mu User) error {
	if mu.u == nil {
		return fmt.Errorf("attach nil user: %w", ErrConfig)
	}
	one, group := [1]User{mu}, [1]int{}
	s.NearestGroups(one[:], group[:])
	return s.Splice(nil, one[:], group[:])
}

// NearestGroups writes into out[i] the multicast group whose code-space
// centroid is nearest to users[i]'s code under this cell's encoder, or
// -1 when none applies: no groups, no centroid of the code's
// dimension, or twins the encoder cannot read. The users' windows are
// staged and encoded as one batch in engine- and builder-owned
// scratch, so a batch allocates nothing once the scratch has grown,
// and each pick equals the one a one-user call makes. The picks read
// only the twins, the encoder weights and the centroids — not
// membership — so they hold for as long as the groups are not rebuilt.
// Every handle must be non-nil, out must be at least as long as users,
// and calls on one engine must not overlap: they share the scratch.
func (s *Simulation) NearestGroups(users []User, out []int) {
	out = out[:len(users)]
	for i := range out {
		out[i] = -1
	}
	if len(s.groups) == 0 || len(users) == 0 {
		return
	}
	twins := s.pickTwins[:0]
	for _, mu := range users {
		twins = append(twins, &mu.u.twin)
	}
	err := s.builder.CodesInto(&s.pickCodes, twins)
	clear(twins) // hold no twin past the call
	s.pickTwins = twins
	if err != nil {
		return
	}
	for i := range out {
		code := s.pickCodes.Row(i)
		best, bestD := -1, 0.0
		for _, g := range s.groups {
			if len(g.centroid) != len(code) {
				continue
			}
			var d float64
			for j, c := range g.centroid {
				diff := code[j] - c
				d += diff * diff
			}
			if best == -1 || d < bestD {
				best, bestD = g.id, d
			}
		}
		out[i] = best
	}
}

// Splice applies one boundary's membership change to the engine in a
// single pass: the users with the global ids departs leave, and the
// users arrivals join, arrivals[i] in group groups[i]. departs and the
// arrivals' ids must be strictly ascending, and every arrival non-nil
// and new to the engine; everything is checked before anything moves,
// so a rejected splice leaves the engine untouched. The population is
// filtered and merged by id once, each group's members filtered once,
// and each group's arrivals appended in id order, so the outcome is
// the one a detach or attach per user in ascending global-id order
// reaches. A negative group joins the smallest group (ties to the
// lowest id) as it stands at that point of the id order: the live
// group sizes are replayed across the departures and arrivals before
// it. groups, typically NearestGroups' picks, must be as long as
// arrivals.
func (s *Simulation) Splice(departs []int, arrivals []User, groups []int) error {
	for i, id := range departs {
		if i > 0 && id <= departs[i-1] {
			return fmt.Errorf("departures %d then %d not ascending: %w", departs[i-1], id, ErrConfig)
		}
		if s.userByID(id) == nil {
			return fmt.Errorf("detach user %d not in the engine: %w", id, ErrConfig)
		}
	}
	if len(groups) < len(arrivals) {
		return fmt.Errorf("%d arrivals with %d groups: %w", len(arrivals), len(groups), ErrConfig)
	}
	for i, mu := range arrivals {
		switch {
		case mu.u == nil:
			return fmt.Errorf("attach nil user: %w", ErrConfig)
		case groups[i] >= len(s.groups):
			return fmt.Errorf("attach user %d to group %d of %d: %w", mu.u.id, groups[i], len(s.groups), ErrConfig)
		case i > 0 && mu.u.id <= arrivals[i-1].u.id:
			return fmt.Errorf("arrivals %d then %d not ascending: %w", arrivals[i-1].u.id, mu.u.id, ErrConfig)
		case s.userByID(mu.u.id) != nil:
			return fmt.Errorf("attach duplicate user %d: %w", mu.u.id, ErrConfig)
		}
	}
	if len(departs) == 0 && len(arrivals) == 0 {
		return nil
	}
	s.spliceGroups(departs, arrivals, groups)
	s.spliceUsers(departs, arrivals)
	// Membership changed under the stability tracker's feet; the next
	// construction starts a fresh baseline.
	s.prevAssign = nil
	return nil
}

// spliceGroups is Splice's membership half: each group's members are
// filtered once, noting which group each departure left, and then the
// departures and arrivals are walked in merged id order over the live
// group sizes, resolving every negative group to the smallest group of
// that moment and appending each arrival to its group.
func (s *Simulation) spliceGroups(departs []int, arrivals []User, groups []int) {
	if len(s.groups) == 0 {
		return
	}
	sizes := s.spliceSizes[:0]
	left := append(s.spliceLeft[:0], make([]int, len(departs))...)
	for i := range left {
		left[i] = -1
	}
	for gi, g := range s.groups {
		sizes = append(sizes, len(g.members))
		if len(departs) == 0 {
			continue
		}
		kept := g.members[:0]
		for _, m := range g.members {
			if j, found := slices.BinarySearch(departs, m); found {
				left[j] = gi
				continue
			}
			kept = append(kept, m)
		}
		g.members = kept
	}
	j := 0
	for i, mu := range arrivals {
		for ; j < len(departs) && departs[j] < mu.u.id; j++ {
			if left[j] >= 0 {
				sizes[left[j]]--
			}
		}
		g := groups[i]
		if g < 0 {
			g = 0
			for k := range sizes {
				if sizes[k] < sizes[g] {
					g = k
				}
			}
		}
		sizes[g]++
		s.groups[g].members = append(s.groups[g].members, mu.u.id)
	}
	s.spliceSizes, s.spliceLeft = sizes, left
}

// spliceUsers is Splice's population half. Each departure is found by
// binary search in the id-sorted users and the runs between departures
// are shifted down with one copy each; then the arrivals are merged in
// from the back, each placed by binary search after one copy of the
// run it displaces. A lone detach or attach thus costs what one slice
// shift costs, and a batch one pass of copies; the id index follows.
func (s *Simulation) spliceUsers(departs []int, arrivals []User) {
	users := s.users
	if len(departs) > 0 {
		w, r := -1, 0 // write end of the kept prefix, read start of the next run
		for _, id := range departs {
			p := r + sort.Search(len(users)-r, func(k int) bool { return users[r+k].id >= id })
			if w < 0 {
				w = p
			} else {
				w += copy(users[w:], users[r:p])
			}
			s.index(id, nil)
			r = p + 1
		}
		w += copy(users[w:], users[r:])
		clear(users[w:]) // hold no departed user
		users = users[:w]
	}
	if n := len(arrivals); n > 0 {
		r := len(users) // users[:r] are the not yet displaced old users
		users = slices.Grow(users, n)[:r+n]
		w := r + n // users[w:] is final
		for i := n - 1; i >= 0; i-- {
			u := arrivals[i].u
			p := sort.Search(r, func(k int) bool { return users[k].id > u.id })
			w -= r - p
			copy(users[w:], users[p:r])
			r = p
			w--
			users[w] = u
			s.index(u.id, u)
		}
	}
	s.users = users
}
