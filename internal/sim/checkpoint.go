// This file serializes the full mutable state of a Simulation at an
// interval boundary, and restores it into an engine the same
// constructors built for the same configuration. The contract is
// bit-exactness: a restored engine produces the same
// draw-for-draw trace suffix the original would have.
//
// The restore strategy is hybrid. Everything derivable from the
// configuration — catalog, stations, campus, untrained network
// shapes — comes from the deterministic constructors the resuming
// engine ran, which build no users; the checkpoint carries only what
// evolves afterwards: RNG positions (one splitmix64 word per derived
// stream, a draw count for the builder's stdlib source), trained
// weights, twin histories, calibration EWMAs, mobility/link state,
// group membership + profiles, the edge cache, and the engine's
// bookkeeping counters. The checkpoint does not carry a user's
// construction draws (its landmark route, engagement, speed bounds),
// so Restore builds each user it lists exactly once, replaying the
// constructor on the user's derived stream (buildUser), straight into
// one slab sized to the users the cell's owner map gives it, and then
// decodes the user's mutable state over it. A 4000-user × 8-cell
// resume so builds every twin once, on the cells' pool tasks, and
// allocates about 3 450 objects, 1.25× an open's
// (BenchmarkCheckpointDecode). An import (DecodeUserInto) replays into
// the spare it is given, with no allocation for a spare of its
// mobility class. Per-interval
// accumulators (tick statistics, scheduler reservations) are always
// zeroed at a boundary, so they never ride in a checkpoint.
//
// Every section is binary (checkpoint format v5), and each package
// encodes and decodes its own state: mobility its walkers, channel the
// link, predict the EWMAs, edge the cache, grouping the trained
// networks (through cnn, ddqn and nn), kmeans the centroids and udt
// the twin — most of a checkpoint's bytes, the same in the "users"
// section, a cluster.Worker handover and a coord worker ack. All but
// the centroids decode in place into the object the constructor
// already built, checking every length against it, so no allocation is
// sized by a length the input claims; any failure is
// checkpoint.ErrCorrupt. This file only frames those calls around the
// engine's own bookkeeping and the group table.
//
// Reading (ReadSections: framing and CRCs, in stream order) is split
// from decoding (Restore), so a cluster reads its cells' sections off
// one stream and decodes the cells concurrently; writing goes through
// any checkpoint.Writer, so a cluster frames each cell's sections into
// an encoder of its own, concurrently, and writes them in order.
//
// WriteState only runs at interval boundaries — the session layer
// guarantees that by refusing to checkpoint failed sessions.

package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/kmeans"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

// WriteState appends the engine's boundary state to a checkpoint as
// the sections "engine", "builder", "cache", "users" and "groups".
func (s *Simulation) WriteState(cw *checkpoint.Writer) error {
	if err := cw.Section("engine", s.encodeEngine); err != nil {
		return err
	}
	if err := cw.Section("builder", s.builder.EncodeState); err != nil {
		return err
	}
	if err := cw.Section("cache", s.server.Cache().EncodeState); err != nil {
		return err
	}
	var userErr error
	if err := cw.Section("users", func(e *checkpoint.Enc) {
		userErr = s.encodeUsers(e)
	}); err != nil {
		return err
	}
	if userErr != nil {
		return userErr
	}
	return cw.Section("groups", s.encodeGroups)
}

// Sections is one engine's checkpoint sections, read and CRC-checked
// in stream order but not yet decoded, so a cluster can read every
// cell's sections off the one stream and decode the cells
// concurrently.
type Sections [len(sectionNames)]*checkpoint.Dec

// sectionNames lists the sections WriteState writes, in stream order.
var sectionNames = [...]string{"engine", "builder", "cache", "users", "groups"}

// ReadSections reads the five sections WriteState wrote.
func ReadSections(cr *checkpoint.Reader) (Sections, error) {
	var secs Sections
	for i, name := range sectionNames {
		d, err := cr.Section(name)
		if err != nil {
			return Sections{}, err
		}
		secs[i] = d
	}
	return secs, nil
}

// Restore decodes sections read by ReadSections into the engine, whose
// population becomes the users with the given ids, ascending: the
// "users" section must list exactly those, in order, and is corrupt
// before the first user out of place is built. They are built once
// each, into one newUsers slab, and the engine's former population, if
// any, is let go. Restore writes only this engine and reads its
// substrate, so sibling cells restore concurrently, each allocating
// its slab on its own pool task.
func (s *Simulation) Restore(secs Sections, ids []int) error {
	decodeUsers := func(d *checkpoint.Dec) error { return s.decodeUsers(d, ids) }
	decode := [len(sectionNames)]func(*checkpoint.Dec) error{
		s.decodeEngine, s.builder.DecodeState, s.server.Cache().DecodeState, decodeUsers, s.decodeGroups,
	}
	for i, d := range secs {
		if err := decode[i](d); err != nil {
			return fmt.Errorf("section %q: %w", sectionNames[i], err)
		}
		if err := d.Close(); err != nil {
			return fmt.Errorf("section %q: %w", sectionNames[i], err)
		}
	}
	return nil
}

func (s *Simulation) encodeEngine(e *checkpoint.Enc) {
	e.U64(s.cnt.Draws())
	e.U64(s.constructions)
	e.Int(s.churned)
	e.F64s(s.stability)
	e.Bool(s.prevAssign != nil)
	if s.prevAssign != nil {
		e.Ints(s.prevAssign)
	}
	e.Bool(s.lastResult != nil)
	if s.lastResult != nil {
		e.F64(s.lastResult.Silhouette())
	}
	levels := make([]int, 0, len(s.cyclesPerTxS))
	for lv := range s.cyclesPerTxS {
		levels = append(levels, lv)
	}
	sort.Ints(levels)
	e.U32(uint32(len(levels)))
	for _, lv := range levels {
		e.Int(lv)
		s.cyclesPerTxS[lv].EncodeState(e)
	}
	s.wastePerPlayS.EncodeState(e)
}

func (s *Simulation) decodeEngine(d *checkpoint.Dec) error {
	draws := d.U64()
	s.constructions = d.U64()
	s.churned = d.Int()
	s.stability = d.F64s()
	s.prevAssign = nil
	if d.Bool() {
		s.prevAssign = d.Ints()
		if s.prevAssign == nil {
			s.prevAssign = []int{}
		}
	}
	s.lastResult = nil
	if d.Bool() {
		s.lastResult = grouping.RestoredResult(d.F64())
	}
	nLevels := d.U32()
	clear(s.cyclesPerTxS)
	for i := uint32(0); i < nLevels && d.Err() == nil; i++ {
		lv := d.Int()
		tracker, err := predict.NewEWMA(0.5)
		if err != nil {
			return err
		}
		if err := tracker.DecodeState(d); err != nil {
			return err
		}
		s.cyclesPerTxS[lv] = tracker
	}
	if err := s.wastePerPlayS.DecodeState(d); err != nil {
		return err
	}
	// The builder's source was replayed through construction; skip it
	// forward, one draw at a time, to the recorded position.
	if replayed := s.cnt.Draws(); draws < replayed || draws-replayed > maxBuilderSkip(s.cfg) {
		return fmt.Errorf("builder rng at draw %d, checkpoint says %d: %w", replayed, draws, checkpoint.ErrCorrupt)
	}
	s.cnt.Skip(draws - s.cnt.Draws())
	return nil
}

// maxBuilderSkip bounds how far past its replayed position a
// checkpoint of configuration c may put the builder's source: twice,
// for rejection redraws, the draws of one compressor fit (a shuffle of
// NumUsers windows an epoch), of the agent's episodes (an ε, an action
// and a 32-row replay batch each) and of the K-means++ seedings of its
// reward table and of the NumIntervals/RegroupEvery+1 constructions
// (KMax+2 runs of max(KMax, FixedK) draws each).
func maxBuilderSkip(c Config) uint64 {
	seedings := float64(c.Grouping.KMax+2) * float64(max(c.Grouping.KMax, c.FixedK)) * float64(c.NumIntervals/c.RegroupEvery+2)
	draws := float64(c.NumUsers)*float64(c.CompressorEpochs) + float64(c.AgentEpisodes)*34 + seedings
	return uint64(min(2*draws, 1<<63))
}

// encodeUsers appends the population. Once the first user is encoded,
// an encoder without room for the rest at that user's size grows to
// hold them plus an eighth, which also covers the groups section after
// them: an encoder that starts empty grows once rather than by a
// quarter at a time through megabytes of twins, and one kept from an
// earlier checkpoint regrows only when the twins will not fit. A user
// more than an eighth larger than the one the room was judged by — the
// first may be a churned twin with empty rings, half a full one's size
// — judges it again, early, before much is copied.
func (s *Simulation) encodeUsers(e *checkpoint.Enc) error {
	e.U32(uint32(len(s.users)))
	reserved := 0 // the user size the room was last judged by
	for i, u := range s.users {
		at := len(e.Bytes())
		if err := s.encodeUser(e, u); err != nil {
			return err
		}
		if size := len(e.Bytes()) - at; size > reserved+reserved/8 {
			reserved = size
			rest := (len(s.users) - 1 - i) * size
			if b := e.Bytes(); cap(b)-len(b) < rest {
				e.Grow(rest + rest/8)
			}
		}
	}
	return nil
}

// encodeUser appends one user's full mutable state: identity and
// stream position first (so decode can replay construction), then
// everything that evolves after construction.
func (s *Simulation) encodeUser(e *checkpoint.Enc, u *user) error {
	e.Int(u.id)
	e.U64(u.gen)
	e.U64(u.stream.State())
	e.F64s(u.profile.Pref)
	if err := mobility.EncodeState(e, u.mob); err != nil {
		return fmt.Errorf("user %d: %w", u.id, err)
	}
	u.link.EncodeState(e)
	u.twin.EncodeState(e)
	e.F64(u.posPrev.X)
	e.F64(u.posPrev.Y)
	e.F64(u.posPrev2.X)
	e.F64(u.posPrev2.Y)
	e.Int(u.havePos)
	e.F64(u.prevDispX)
	e.F64(u.prevDispY)
	u.snrOffset.EncodeState(e)
	u.snrEWMA.EncodeState(e)
	u.persist.EncodeState(e)
	return nil
}

// EncodeUser appends the full mutable state of one population member
// — the per-user twin wire encoding of the "users" checkpoint section
// — so a handover can ship the twin to another process. The bytes are
// exactly what decoding via DecodeUser on a cell sharing this cell's
// substrate (catalog, stations, campus, seed) needs to reproduce the
// user draw-for-draw.
func (s *Simulation) EncodeUser(e *checkpoint.Enc, id int) error {
	u := s.userByID(id)
	if u == nil {
		return fmt.Errorf("encode user %d: not a member of this cell: %w", id, ErrConfig)
	}
	return s.encodeUser(e, u)
}

// DecodeUser is DecodeUserInto without a spare: the user is built
// into storage of its own.
func (s *Simulation) DecodeUser(d *checkpoint.Dec) (User, error) {
	return s.DecodeUserInto(d, User{})
}

// DecodeUserInto rebuilds one user from bytes written by EncodeUser,
// replaying the deterministic constructor on this cell's substrate
// and overwriting the mutable state. A non-zero spare is a user no
// engine holds any more — the cluster engine hands in a twin it
// exported at the last boundary — and the decoded user is built in its
// storage, every part in place: a spare of the user's mobility class
// (id % 4) takes the import with no allocation at all, one of another
// class with one, its new mobility model. The spare is consumed
// either way, and must not be used again except as a later spare. The
// returned handle is detached: pass it to AttachUser or Splice to add
// it to this cell's population.
func (s *Simulation) DecodeUserInto(d *checkpoint.Dec, spare User) (User, error) {
	u, err := s.decodeUser(d, spare.u, nil, -1)
	return User{u: u}, err
}

// decodeUsers decodes the "users" section into one slab for ids, which
// becomes the population: the section must list exactly those users,
// in id order.
func (s *Simulation) decodeUsers(d *checkpoint.Dec, ids []int) error {
	n := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	if int64(n) != int64(len(ids)) {
		return fmt.Errorf("%d users listed, the owner map gives the cell %d: %w", n, len(ids), checkpoint.ErrCorrupt)
	}
	sl := s.newUsers(ids)
	users := make([]*user, len(ids))
	for k, id := range ids {
		u, err := s.decodeUser(d, &sl.users[k], sl.twinBuf(k), id)
		if err != nil {
			return err
		}
		users[k] = u
	}
	clear(s.byID)
	s.users = users
	for _, u := range users {
		s.index(u.id, u)
	}
	return nil
}

// decodeUser restores one user from its encodeUser bytes. It reads the
// user's identity, refusing an id other than want (any id when want is
// negative) as corrupt before building anything, then builds the user
// into u (buildUser, with twinBuf its twin storage or nil for a
// spare's), or into storage of its own when u is nil — replaying the
// constructor on the user's derived stream — and overwrites the
// mutable state and the stream position. A profile preference that is
// not a distribution is corrupt.
func (s *Simulation) decodeUser(d *checkpoint.Dec, u *user, twinBuf []float64, want int) (*user, error) {
	id := d.Int()
	gen := d.U64()
	srcState := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch {
	case id < 0:
		return nil, fmt.Errorf("user id %d: %w", id, checkpoint.ErrCorrupt)
	case want >= 0 && id != want:
		return nil, fmt.Errorf("user %d listed where the owner map puts user %d: %w", id, want, checkpoint.ErrCorrupt)
	}
	if u == nil {
		sl := s.newUsers([]int{id})
		u, twinBuf = &sl.users[0], sl.twinBuf(0)
	}
	if err := s.buildUser(u, id, gen, twinBuf); err != nil {
		return nil, fmt.Errorf("user %d replay: %w", id, err)
	}
	if n := d.F64sInto(u.profile.Pref); d.Err() == nil {
		if n != len(u.profile.Pref) {
			return nil, fmt.Errorf("user %d preference of %d categories: %w", id, n, checkpoint.ErrCorrupt)
		}
		if err := u.profile.Pref.Validate(); err != nil {
			return nil, fmt.Errorf("user %d preference: %v: %w", id, err, checkpoint.ErrCorrupt)
		}
	}
	if err := mobility.DecodeState(d, u.mob); err != nil {
		return nil, fmt.Errorf("user %d mobility: %w", id, err)
	}
	if err := u.link.DecodeState(d, s.stations); err != nil {
		return nil, fmt.Errorf("user %d link: %w", id, err)
	}
	if err := u.twin.DecodeState(d); err != nil {
		return nil, fmt.Errorf("user %d: %w", id, err)
	}
	u.posPrev = mobility.Point{X: d.F64(), Y: d.F64()}
	u.posPrev2 = mobility.Point{X: d.F64(), Y: d.F64()}
	u.havePos = d.Int()
	u.prevDispX = d.F64()
	u.prevDispY = d.F64()
	for _, f := range []*predict.EWMA{&u.snrOffset, &u.snrEWMA, &u.persist} {
		if err := f.DecodeState(d); err != nil {
			return nil, fmt.Errorf("user %d: %w", id, err)
		}
	}
	u.stream.SetState(srcState)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return u, nil
}

func (s *Simulation) encodeGroups(e *checkpoint.Enc) {
	e.U32(uint32(len(s.groups)))
	for _, g := range s.groups {
		e.Int(g.id)
		e.U64(g.src.State())
		e.Ints(g.members)
		kmeans.EncodeCentroids(e, []vecmath.Vec{vecmath.Vec(g.centroid)})
		e.Bool(g.profile != nil)
		if g.profile == nil {
			continue
		}
		p := g.profile
		e.U32(uint32(len(p.Swipe.CDF)))
		for ci := range p.Swipe.CDF {
			e.F64s(p.Swipe.CDF[ci])
			e.Int(p.Swipe.Samples[ci])
		}
		e.F64s(p.Preference)
		e.U32(uint32(len(p.Recommended)))
		for _, v := range p.Recommended {
			e.Int(v.ID)
		}
		e.Int(p.Size)
		e.F64(p.MeanEngagementS)
	}
}

// decodeGroups decodes the "groups" section, after the population it
// refers to: a group's id must be its position, and every member a
// user of the population in no other group.
func (s *Simulation) decodeGroups(d *checkpoint.Dec) error {
	n := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	groups := make([]*groupState, 0, min(int(n), 1<<16))
	grouped := make([]bool, len(s.users)) // by population position
	for i := uint32(0); i < n; i++ {
		g := &groupState{id: d.Int()}
		g.src = parallel.StreamAt(d.U64())
		g.rng = rand.New(g.src)
		g.members = d.Ints()
		if g.members == nil {
			g.members = []int{}
		}
		if err := d.Err(); err != nil {
			return err
		}
		if g.id != int(i) {
			return fmt.Errorf("group %d at position %d: %w", g.id, i, checkpoint.ErrCorrupt)
		}
		for _, m := range g.members {
			pos := s.userPos(m)
			if pos < 0 {
				return fmt.Errorf("group %d member %d not in the population: %w", g.id, m, checkpoint.ErrCorrupt)
			}
			if grouped[pos] {
				return fmt.Errorf("group %d member %d listed twice: %w", g.id, m, checkpoint.ErrCorrupt)
			}
			grouped[pos] = true
		}
		cs := kmeans.DecodeCentroids(d)
		if len(cs) == 1 {
			g.centroid = []float64(cs[0])
		}
		hasProfile := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if hasProfile {
			p, err := decodeGroupProfile(d, s.catalog)
			if err != nil {
				return fmt.Errorf("group %d profile: %w", g.id, err)
			}
			g.profile = p
		}
		groups = append(groups, g)
		if err := d.Err(); err != nil {
			return err
		}
	}
	s.groups = groups
	return nil
}

// decodedProfile is one group profile as a resume decodes it: the
// profile, its swipe distribution and the floats of both, one
// allocation. A CDF holds at most predict.SwipeBins floats and the
// preference one per category; a longer run is corruption.
type decodedProfile struct {
	p      predict.GroupProfile
	swipe  predict.SwipeDistribution
	floats [video.NumCategories*predict.SwipeBins + video.NumCategories]float64
}

// f64sInto reads a float run into the front of room and returns it,
// capped at its length.
func f64sInto(d *checkpoint.Dec, room []float64) []float64 {
	n := d.F64sInto(room)
	return room[:n:n]
}

func decodeGroupProfile(d *checkpoint.Dec, catalog *video.Catalog) (*predict.GroupProfile, error) {
	nCat := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if int(nCat) != video.NumCategories {
		return nil, fmt.Errorf("profile with %d categories, want %d: %w", nCat, video.NumCategories, checkpoint.ErrCorrupt)
	}
	dp := new(decodedProfile)
	floats := dp.floats[:]
	for ci := range dp.swipe.CDF {
		dp.swipe.CDF[ci] = f64sInto(d, floats[:predict.SwipeBins])
		floats = floats[predict.SwipeBins:]
		dp.swipe.Samples[ci] = d.Int()
	}
	p := &dp.p
	p.Swipe = &dp.swipe
	p.Preference = f64sInto(d, floats)
	nRec := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	p.Recommended = make([]*video.Video, 0, min(int(nRec), 1<<20))
	for i := uint32(0); i < nRec && d.Err() == nil; i++ {
		id := d.Int()
		if id < 0 || id >= len(catalog.Videos) {
			return nil, fmt.Errorf("recommended video %d of %d: %w", id, len(catalog.Videos), checkpoint.ErrCorrupt)
		}
		p.Recommended = append(p.Recommended, catalog.Videos[id])
	}
	p.Size = d.Int()
	p.MeanEngagementS = d.F64()
	return p, d.Err()
}
