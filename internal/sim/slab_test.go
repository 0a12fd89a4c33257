package sim

import (
	"bytes"
	"fmt"
	"testing"

	"dtmsvs/internal/checkpoint"
)

// newUser builds user id of churn generation gen into storage of its
// own, as a user built alone.
func (s *Simulation) newUser(id int, gen uint64) (*user, error) {
	sl := s.newUsers([]int{id})
	u := &sl.users[0]
	return u, s.buildUser(u, id, gen, sl.twinBuf(0))
}

// bareCell is the monolithic engine's cell without its population, on
// a pool of the config's Parallelism.
func bareCell(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	sub, err := NewSubstrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := sub.NewServer(cfg.Defaulted().CacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	sub.Prewarm(server)
	s, err := NewCell(cfg, CellOptions{Substrate: sub, Server: server, BS: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSlabUsersMatchOneAtATime: the users PlaceUsers builds into its
// slabs — at Parallelism 1 and on all cores, with and without a keep
// filter — encode byte for byte like users built one at a time into
// storage of their own, and step one tick alike.
func TestSlabUsersMatchOneAtATime(t *testing.T) {
	for _, par := range []int{1, 0} { // 0: all cores
		for _, filtered := range []bool{false, true} {
			t.Run(fmt.Sprintf("parallel=%d/filtered=%v", par, filtered), func(t *testing.T) {
				cfg := fastConfig(11)
				cfg.NumUsers = 600 // more than one placeAll block
				cfg.Parallelism = par
				s := bareCell(t, cfg)
				var keep func(bs int) bool
				if filtered {
					keep = func(bs int) bool { return bs != 1 }
				}
				serving := make([]int, cfg.NumUsers)
				placed, err := s.PlaceUsers(serving, keep)
				if err != nil {
					t.Fatal(err)
				}
				built := 0
				for id, mu := range placed {
					if want := keep == nil || keep(serving[id]); (mu.u != nil) != want {
						t.Fatalf("user %d at station %d built: %v", id, serving[id], mu.u != nil)
					}
					if mu.u == nil {
						continue
					}
					built++
					one, err := s.newUser(id, 0)
					if err != nil {
						t.Fatal(err)
					}
					if one.link.BS().ID != serving[id] {
						t.Fatalf("user %d placed at station %d, built alone at %d", id, serving[id], one.link.BS().ID)
					}
					if !bytes.Equal(encodedUser(t, s, mu.u), encodedUser(t, s, one)) {
						t.Fatalf("user %d built in a slab encodes unlike one built alone", id)
					}
					for _, u := range []*user{mu.u, one} {
						if err := s.collectUserTicks(u, 1); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(encodedUser(t, s, mu.u), encodedUser(t, s, one)) || mu.u.tracking != one.tracking {
						t.Fatalf("user %d built in a slab steps a tick unlike one built alone", id)
					}
				}
				if built == 0 || filtered && built == cfg.NumUsers {
					t.Fatalf("built %d of %d users: scenario must split them", built, cfg.NumUsers)
				}
			})
		}
	}
}

// TestRebuildAllocatesNothing: a churn arrival built into the user it
// replaces, and an import decoded into a spare of its mobility class,
// allocate nothing — every part of the user is rebuilt in the storage
// it had — for each of the four classes.
func TestRebuildAllocatesNothing(t *testing.T) {
	s := warmedEngine(t)
	for class := range 4 {
		// Users 0..3 and 4..7 are one of each class (id % 4).
		u := s.userByID(class)
		if n := testing.AllocsPerRun(20, func() {
			if err := s.buildUser(u, u.id, u.gen+1, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("class %d: a churn arrival allocates %.0f times", class, n)
		}

		enc := encodedUser(t, s, s.userByID(class+4))
		spare, err := s.newUser(class+8, 0)
		if err != nil {
			t.Fatal(err)
		}
		var d checkpoint.Dec
		if n := testing.AllocsPerRun(20, func() {
			d = *checkpoint.NewDec(enc)
			mu, err := s.DecodeUserInto(&d, User{u: spare})
			if err != nil {
				t.Fatal(err)
			}
			spare = mu.u
		}); n != 0 {
			t.Errorf("class %d: an import into a spare of its class allocates %.0f times", class, n)
		}
		if !bytes.Equal(encodedUser(t, s, spare), enc) {
			t.Fatalf("class %d: the import decoded into a spare re-encodes unlike its bytes", class)
		}
	}
}
