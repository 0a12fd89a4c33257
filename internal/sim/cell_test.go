package sim

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
)

// testCellOptions builds a cell substrate of its own for cell bs.
func testCellOptions(t *testing.T, cfg Config, bs int) CellOptions {
	t.Helper()
	cfg.Parallelism = 2
	sub, err := NewSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := sub.NewServer(cfg.Defaulted().CacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	sub.Prewarm(server)
	return CellOptions{Substrate: sub, Server: server, BS: bs}
}

// newTestCell builds cell bs over its own substrate and attaches the
// users with the given ids (whatever their serving station: the cell
// does not care).
func newTestCell(t *testing.T, cfg Config, bs int, ids []int) *Simulation {
	t.Helper()
	s, err := NewCell(cfg, testCellOptions(t, cfg, bs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	spawned, err := s.PlaceUsers(make([]int, slices.Max(ids)+1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.AttachUser(spawned[id]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestNewCellValidatesBS: a cell id must name one of the stations,
// or be -1, the monolithic engine's one cell over every station.
func TestNewCellValidatesBS(t *testing.T) {
	cfg := fastConfig(3)
	for _, bs := range []int{-2, cfg.NumBS} {
		if _, err := NewCell(cfg, testCellOptions(t, cfg, bs)); !errors.Is(err, ErrConfig) {
			t.Fatalf("bs %d: want ErrConfig, got %v", bs, err)
		}
	}
}

// TestCellRowsCarryBS: a cell engine tags the rows it makes with its
// cell id.
func TestCellRowsCarryBS(t *testing.T) {
	cfg := fastConfig(4)
	all := make([]int, cfg.NumUsers)
	for i := range all {
		all[i] = i
	}
	const bs = 2
	s := newTestCell(t, cfg, bs, all)
	ctx := context.Background()
	if err := s.WarmupIntervalContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildGroupsContext(ctx); err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	for i := 0; i < 2; i++ {
		if err := s.RunIntervalContext(ctx, i, tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Records) == 0 {
		t.Fatal("cell made no rows")
	}
	for i, r := range tr.Records {
		if r.BS != bs {
			t.Fatalf("row %d has BS %d, want %d", i, r.BS, bs)
		}
	}
}

// referenceAssignGroup is the attach-time group choice, one twin
// encoded alone into a fresh matrix, kept as the oracle of the batched
// pick and the splice: nearest centroid in the cell's code space when
// computable, else the smallest group as it stands (ties to the lowest
// id).
func referenceAssignGroup(s *Simulation, u *user) int {
	var codes vecmath.Matrix
	if err := s.builder.CodesInto(&codes, []*udt.Twin{&u.twin}); err == nil && codes.Rows == 1 {
		code := codes.Row(0)
		best, bestD := -1, 0.0
		for _, g := range s.groups {
			if len(g.centroid) != len(code) {
				continue
			}
			var d float64
			for i, c := range g.centroid {
				diff := code[i] - c
				d += diff * diff
			}
			if best == -1 || d < bestD {
				best, bestD = g.id, d
			}
		}
		if best >= 0 {
			return best
		}
	}
	best := 0
	for _, g := range s.groups[1:] {
		if len(g.members) < len(s.groups[best].members) {
			best = g.id
		}
	}
	return best
}

// groupOf returns the group holding id, or -1.
func groupOf(s *Simulation, id int) int {
	for _, g := range s.groups {
		if slices.Contains(g.members, id) {
			return g.id
		}
	}
	return -1
}

// builtTestCell is a cell of 48 users, warmed up, trained and grouped
// with the CNN on: at least two groups, each with a centroid.
func builtTestCell(t *testing.T) *Simulation {
	t.Helper()
	cfg := fastConfig(5)
	cfg.NumUsers = 48
	all := make([]int, cfg.NumUsers)
	for i := range all {
		all[i] = i
	}
	s := newTestCell(t, cfg, 0, all)
	for i := 0; i < 2; i++ {
		if err := s.WarmupIntervalContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Train(); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildGroupsContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.groups) < 2 || s.groups[0].centroid == nil {
		t.Fatalf("%d groups, centroid %v: scenario too small to exercise the choice", len(s.groups), s.groups[0].centroid)
	}
	return s
}

// TestNearestGroupMatchesAttachTime runs the handover pass's shape on
// one cell: every migrant's group is picked in one NearestGroups batch
// while it still sits in the population, the migrants leave in one
// splice, and they come back in a second splice that also takes every
// sixth user out, so departures and arrivals interleave in id order.
// A twin cell built the same way replays the moves one user at a time
// (DetachUser, AttachUser) in id order. Each migrant must land where
// the attach-time choice would have put it, evaluated on live
// membership just before its attach, and both cells must end with the
// same population and the same member lists, order included. The cases
// cover trained centroids, one centroid of the wrong dimension, none
// of the right dimension (the smallest-group fallback, whose answer
// moves as the migrants land and the leavers go), no centroids at
// all, and a cell with no groups yet.
func TestNearestGroupMatchesAttachTime(t *testing.T) {
	cfg := fastConfig(5)
	cfg.NumUsers = 48
	all := make([]int, cfg.NumUsers)
	for i := range all {
		all[i] = i
	}
	cases := []struct {
		name     string
		cell     func(t *testing.T) *Simulation
		fallback bool // every migrant must take the smallest-group fallback
	}{
		{"trained centroids", builtTestCell, false},
		{"one centroid of the wrong dimension", func(t *testing.T) *Simulation {
			s := builtTestCell(t)
			s.groups[1].centroid = append(slices.Clone(s.groups[1].centroid), 0)
			return s
		}, false},
		{"no centroid of the code's dimension", func(t *testing.T) *Simulation {
			s := builtTestCell(t)
			for _, g := range s.groups {
				g.centroid = g.centroid[:len(g.centroid)-1]
			}
			return s
		}, true},
		{"no centroids", func(t *testing.T) *Simulation {
			s := builtTestCell(t)
			for _, g := range s.groups {
				g.centroid = nil
			}
			return s
		}, true},
		{"no groups yet", func(t *testing.T) *Simulation { return newTestCell(t, cfg, 0, all) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := tc.cell(t), tc.cell(t)
			var migrants, leavers []int
			for id := 0; id < cfg.NumUsers; id++ {
				switch id % 6 {
				case 0, 3:
					migrants = append(migrants, id)
				case 1:
					leavers = append(leavers, id)
				}
			}
			handles := make([]User, len(migrants))
			for i, id := range migrants {
				mu, ok := s.Member(id)
				if !ok {
					t.Fatalf("user %d not a member", id)
				}
				handles[i] = mu
			}
			pre := make([]int, len(migrants))
			s.NearestGroups(handles, pre)
			for i, id := range migrants {
				if tc.fallback != (pre[i] == -1) {
					t.Fatalf("user %d: picked group %d, fallback expected: %v", id, pre[i], tc.fallback)
				}
			}
			if err := s.Splice(migrants, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Splice(leavers, handles, pre); err != nil {
				t.Fatal(err)
			}

			refHandles := make([]User, len(migrants))
			for i, id := range migrants {
				mu, ok := ref.DetachUser(id)
				if !ok {
					t.Fatalf("user %d not detachable", id)
				}
				refHandles[i] = mu
			}
			next := 0
			for id := 0; id < cfg.NumUsers; id++ {
				if slices.Contains(leavers, id) {
					if _, ok := ref.DetachUser(id); !ok {
						t.Fatalf("user %d not detachable", id)
					}
					continue
				}
				if next == len(migrants) || migrants[next] != id {
					continue
				}
				mu := refHandles[next]
				want := -1
				if len(ref.groups) > 0 {
					want = referenceAssignGroup(ref, mu.u)
				}
				if err := ref.AttachUser(mu); err != nil {
					t.Fatal(err)
				}
				if got := groupOf(ref, id); got != want {
					t.Fatalf("user %d attached alone joined group %d, attach-time choice %d", id, got, want)
				}
				if got := groupOf(s, id); got != want {
					t.Fatalf("user %d spliced into group %d, attach-time choice %d (picked %d)", id, got, want, pre[next])
				}
				next++
			}
			var stay []int
			for id := 0; id < cfg.NumUsers; id++ {
				if !slices.Contains(leavers, id) {
					stay = append(stay, id)
				}
			}
			if !slices.Equal(s.UserIDs(), stay) || !slices.Equal(ref.UserIDs(), stay) {
				t.Fatalf("spliced population %v, one at a time %v, want %v", s.UserIDs(), ref.UserIDs(), stay)
			}
			for _, id := range stay {
				if mu, ok := s.Member(id); !ok || mu.ID() != id {
					t.Fatalf("user %d not indexed after the splice", id)
				}
			}
			for g := range s.groups {
				if !slices.Equal(s.groups[g].members, ref.groups[g].members) {
					t.Fatalf("group %d: spliced members %v, one at a time %v", g, s.groups[g].members, ref.groups[g].members)
				}
			}
		})
	}
}

// TestNearestGroupsMatchesOneByOne: with the CNN on, 17 arrivals
// picked in one NearestGroups batch — crossing the compressor's
// 8-window chunk boundary twice — pick the same groups as 17 one-user
// calls, and the same as the oracle's one-twin encode. The batch
// spreads over more than one group, so the comparison is not vacuous.
func TestNearestGroupsMatchesOneByOne(t *testing.T) {
	s := builtTestCell(t)
	var users []User
	for id := 0; len(users) < 17; id += 2 {
		mu, ok := s.Member(id)
		if !ok {
			t.Fatalf("user %d not a member", id)
		}
		users = append(users, mu)
	}
	batch := make([]int, len(users))
	s.NearestGroups(users, batch)
	seen := map[int]bool{}
	for i, mu := range users {
		var one [1]int
		s.NearestGroups([]User{mu}, one[:])
		if batch[i] != one[0] || batch[i] != referenceAssignGroup(s, mu.u) {
			t.Fatalf("user %d: batch picked group %d, one-user call %d, oracle %d",
				mu.ID(), batch[i], one[0], referenceAssignGroup(s, mu.u))
		}
		seen[batch[i]] = true
	}
	if len(seen) < 2 {
		t.Fatalf("every arrival picked group %v: scenario too small to tell picks apart", seen)
	}
}

// TestSpliceRejectsBeforeMoving: a splice with a bad departure or
// arrival anywhere in it fails typed and leaves the engine as it was.
func TestSpliceRejectsBeforeMoving(t *testing.T) {
	s := builtTestCell(t)
	stranger, err := s.PlaceUsers(make([]int, s.cfg.NumUsers), nil)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := s.Member(5)
	members := func() [][]int {
		var out [][]int
		for _, g := range s.groups {
			out = append(out, slices.Clone(g.members))
		}
		return out
	}
	ids, groups := s.UserIDs(), members()
	for _, tc := range []struct {
		name     string
		departs  []int
		arrivals []User
		groups   []int
	}{
		{"departure not in the cell", []int{2, 99}, nil, nil},
		{"departures out of order", []int{4, 2}, nil, nil},
		{"duplicate arrival", []int{2}, []User{in}, []int{-1}},
		{"nil arrival", []int{2}, []User{{}}, []int{-1}},
		{"group out of range", []int{2}, []User{stranger[0]}, []int{len(s.groups)}},
		{"arrival without a group", []int{2}, []User{stranger[0]}, nil},
	} {
		if err := s.Splice(tc.departs, tc.arrivals, tc.groups); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: want ErrConfig, got %v", tc.name, err)
		}
		if !slices.Equal(s.UserIDs(), ids) || !slices.EqualFunc(members(), groups, slices.Equal) {
			t.Fatalf("%s: rejected splice moved users", tc.name)
		}
	}
}

// TestCellIndexTracksPopulation: a cell's id → user index agrees with
// its population after attach, detach, churn and a checkpoint restore.
func TestCellIndexTracksPopulation(t *testing.T) {
	cfg := fastConfig(9)
	cfg.NumUsers = 40
	cfg.ChurnPerInterval = 0.5
	var ids []int
	for id := 1; id < cfg.NumUsers; id += 2 {
		ids = append(ids, id)
	}
	s := newTestCell(t, cfg, 1, ids)
	check := func(s *Simulation, at string) {
		t.Helper()
		for id := -1; id <= cfg.NumUsers; id++ {
			pos := s.userPos(id)
			mu, ok := s.Member(id)
			if ok != (pos >= 0) || (ok && mu.u != s.users[pos]) {
				t.Fatalf("%s: user %d indexed as %v, population position %d", at, id, ok, pos)
			}
		}
	}
	check(s, "attach")
	for _, id := range []int{1, 17, 39} {
		if _, ok := s.DetachUser(id); !ok {
			t.Fatalf("user %d not detachable", id)
		}
	}
	check(s, "detach")
	n, err := s.churnUsers(context.Background())
	if err != nil || n == 0 {
		t.Fatalf("churn replaced %d users (%v): scenario must churn", n, err)
	}
	check(s, "churn")

	var buf bytes.Buffer
	cw := checkpoint.NewWriter(&buf, "cell", 0)
	if err := s.WriteState(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	// The restoring cell holds a different population first: restore
	// must forget it.
	r := newTestCell(t, cfg, 1, []int{0, 2, 4})
	cr, err := checkpoint.NewReader(&buf, "cell", 0)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := ReadSections(cr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(secs, s.UserIDs()); err != nil {
		t.Fatal(err)
	}
	check(r, "restore")
	if !slices.Equal(r.UserIDs(), s.UserIDs()) {
		t.Fatalf("restored population %v, want %v", r.UserIDs(), s.UserIDs())
	}
}
