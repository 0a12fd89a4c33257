package sim

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/udt"
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
	spawned, err := s.SpawnUsers(slices.Max(ids) + 1)
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

// referenceAssignGroup is the attach-time group choice the handover
// pre-pass replaced, kept verbatim as its oracle: nearest centroid in
// the cell's code space when computable, else the smallest group as it
// stands (ties to the lowest id).
func referenceAssignGroup(s *Simulation, u *user) int {
	if codes, err := s.builder.Codes([]*udt.Twin{u.twin}); err == nil && len(codes) == 1 {
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

// TestNearestGroupMatchesAttachTime runs the handover pass's shape on
// one cell — every migrant's group precomputed by NearestGroup while
// it still sits in the population, then detach and attach one by one
// in id order — and asserts each lands where the attach-time choice
// would have put it, evaluated on live membership just before its
// attach: with trained centroids, with one centroid of the wrong
// dimension, with none of the right dimension (the smallest-group
// fallback, whose answer moves as the migrants land), with no
// centroids at all, and on a cell with no groups yet.
func TestNearestGroupMatchesAttachTime(t *testing.T) {
	cfg := fastConfig(5)
	cfg.NumUsers = 48
	all := make([]int, cfg.NumUsers)
	for i := range all {
		all[i] = i
	}
	built := func(t *testing.T) *Simulation {
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
	cases := []struct {
		name     string
		cell     func(t *testing.T) *Simulation
		fallback bool // every migrant must take the smallest-group fallback
	}{
		{"trained centroids", built, false},
		{"one centroid of the wrong dimension", func(t *testing.T) *Simulation {
			s := built(t)
			s.groups[1].centroid = append(slices.Clone(s.groups[1].centroid), 0)
			return s
		}, false},
		{"no centroid of the code's dimension", func(t *testing.T) *Simulation {
			s := built(t)
			for _, g := range s.groups {
				g.centroid = g.centroid[:len(g.centroid)-1]
			}
			return s
		}, true},
		{"no centroids", func(t *testing.T) *Simulation {
			s := built(t)
			for _, g := range s.groups {
				g.centroid = nil
			}
			return s
		}, true},
		{"no groups yet", func(t *testing.T) *Simulation { return newTestCell(t, cfg, 0, all) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.cell(t)
			var migrants []int
			for id := 0; id < cfg.NumUsers; id += 3 {
				migrants = append(migrants, id)
			}
			pre := make([]int, len(migrants))
			for i, id := range migrants {
				mu, ok := s.Member(id)
				if !ok {
					t.Fatalf("user %d not a member", id)
				}
				pre[i] = s.NearestGroup(mu)
				if tc.fallback != (pre[i] == -1) {
					t.Fatalf("user %d: precomputed group %d, fallback expected: %v", id, pre[i], tc.fallback)
				}
			}
			handles := make([]User, len(migrants))
			for i, id := range migrants {
				mu, ok := s.DetachUser(id)
				if !ok {
					t.Fatalf("user %d not detachable", id)
				}
				handles[i] = mu
			}
			for i, mu := range handles {
				want := -1
				if len(s.groups) > 0 {
					want = referenceAssignGroup(s, mu.u)
				}
				if err := s.AttachUserTo(mu, pre[i]); err != nil {
					t.Fatal(err)
				}
				if got := groupOf(s, mu.ID()); got != want {
					t.Fatalf("user %d joined group %d, attach-time choice %d (precomputed %d)", mu.ID(), got, want, pre[i])
				}
			}
		})
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
	if err := r.ReadState(cr); err != nil {
		t.Fatal(err)
	}
	check(r, "restore")
	if !slices.Equal(r.UserIDs(), s.UserIDs()) {
		t.Fatalf("restored population %v, want %v", r.UserIDs(), s.UserIDs())
	}
}
