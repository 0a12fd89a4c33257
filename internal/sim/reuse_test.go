package sim

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/udt"
)

// churnyEngine returns a monolithic engine on a two-task pool whose
// users have browsed for an interval and of which about half churn at
// every churn stage.
func churnyEngine(t *testing.T) *Simulation {
	t.Helper()
	cfg := fastConfig(5)
	cfg.ChurnPerInterval = 0.5
	cfg.Parallelism = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.WarmupIntervalContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// userState is what a user's storage holds: the user and its twin.
type userState struct {
	u    *user
	twin *udt.Twin
}

func storage(users []*user) map[int]userState {
	out := make(map[int]userState, len(users))
	for _, u := range users {
		out[u.id] = userState{u, u.twin}
	}
	return out
}

// TestReuseChurnArrival: a churn arrival is built into the storage of
// the user it replaces — the same user and twin — on the pool task that
// owns the slot, and is byte for byte the user a build from scratch on
// the arrival's stream makes. Under -race, a spare handed to two tasks
// is a reported race.
func TestReuseChurnArrival(t *testing.T) {
	s := churnyEngine(t)
	before := storage(s.users)
	gens := make(map[int]uint64, len(s.users))
	for _, u := range s.users {
		gens[u.id] = u.gen
	}
	n, err := s.churnUsers(context.Background())
	if err != nil || n == 0 {
		t.Fatalf("churn replaced %d users (%v): scenario must churn", n, err)
	}
	arrivals := 0
	for _, u := range s.users {
		if got := (userState{u, u.twin}); got != before[u.id] {
			t.Fatalf("user %d (generation %d) does not live in the storage of the user it replaced", u.id, u.gen)
		}
		if u.gen == gens[u.id] {
			continue
		}
		arrivals++
		fresh, _, err := s.buildUser(u.id, parallel.NewStream(s.cfg.Seed, streamUser, uint64(u.id), u.gen), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh.gen = u.gen
		if !bytes.Equal(encodedUser(t, s, u), encodedUser(t, s, fresh)) {
			t.Fatalf("arrival %d built into its predecessor encodes unlike one built fresh", u.id)
		}
	}
	if arrivals != n {
		t.Fatalf("%d users changed generation, churn reported %d", arrivals, n)
	}
}

// TestReuseChurnedSlotOnResume: restoring a checkpoint decodes every
// user into the storage of the opened member with its id — a churned
// slot's generation-0 member included, whose constructor replays into
// it — and the restored engine checkpoints to the bytes it was
// restored from.
func TestReuseChurnedSlotOnResume(t *testing.T) {
	s := churnyEngine(t)
	if n, err := s.churnUsers(context.Background()); err != nil || n == 0 {
		t.Fatalf("churn replaced %d users (%v): scenario must churn", n, err)
	}
	state := func(e *Simulation) []byte {
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf, "cell", 0)
		if err := e.WriteState(cw); err != nil {
			t.Fatal(err)
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	blob := state(s)
	r, err := New(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opened := storage(r.users)
	cr, err := checkpoint.NewReader(bytes.NewReader(blob), "cell", 0)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := ReadSections(cr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(secs); err != nil {
		t.Fatal(err)
	}
	churned := 0
	for _, u := range r.users {
		if u.gen > 0 {
			churned++
		}
		if got := (userState{u, u.twin}); got != opened[u.id] {
			t.Fatalf("user %d (generation %d) restored beside the opened member, not into it", u.id, u.gen)
		}
	}
	if churned == 0 {
		t.Fatal("no churned slot in the checkpoint: scenario must churn")
	}
	if !bytes.Equal(state(r), blob) {
		t.Fatal("restored engine checkpoints unlike the engine it was restored from")
	}
}

// TestPlaceUsersBuildsOnlyKept: placement with a keep filter places
// every user at the station a full placement does, builds exactly the
// users whose station it keeps, and builds each of them as the full
// placement does.
func TestPlaceUsersBuildsOnlyKept(t *testing.T) {
	cfg := fastConfig(7)
	s, err := NewCell(cfg, testCellOptions(t, cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allAt, keptAt := make([]int, cfg.NumUsers), make([]int, cfg.NumUsers)
	all, err := s.PlaceUsers(allAt, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := s.PlaceUsers(keptAt, func(bs int) bool { return bs%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(allAt, keptAt) {
		t.Fatalf("stations %v with a filter, %v without", keptAt, allAt)
	}
	built := 0
	for id, bs := range keptAt {
		if (kept[id].u != nil) != (bs%2 == 0) {
			t.Fatalf("user %d at station %d built: %v", id, bs, kept[id].u != nil)
		}
		if kept[id].u == nil {
			continue
		}
		built++
		if !bytes.Equal(encodedUser(t, s, kept[id].u), encodedUser(t, s, all[id].u)) {
			t.Fatalf("user %d built under a filter unlike without", id)
		}
	}
	if built == 0 || built == cfg.NumUsers {
		t.Fatalf("filter kept %d of %d users: scenario must split them", built, cfg.NumUsers)
	}
}
