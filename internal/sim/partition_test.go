package sim

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// checkPartition fails t unless the engine's groups partition its
// population: every user is in exactly one group's members, and every
// member is a user. The stream and abstraction stages hand a group's
// twins to the group's one pool task, so this is what makes each twin
// one task's there.
func checkPartition(t *testing.T, s *Simulation, when string) {
	t.Helper()
	if len(s.users) > 0 && len(s.groups) == 0 {
		t.Fatalf("%s: %d users and no groups", when, len(s.users))
	}
	listed := make(map[int]int, len(s.users))
	for _, g := range s.groups {
		for _, m := range g.members {
			listed[m]++
		}
	}
	for _, u := range s.users {
		if n := listed[u.id]; n != 1 {
			t.Fatalf("%s: user %d listed by %d groups", when, u.id, n)
		}
		delete(listed, u.id)
	}
	if len(listed) > 0 {
		t.Fatalf("%s: members %v are not in the population", when, slices.Sorted(maps.Keys(listed)))
	}
}

// TestGroupsPartitionPopulation checks the partition after the first
// construction and after every interval of a churn + regroup run —
// each interval churns, every second one regroups after its churn —
// at pool widths 1 and 4, and after splices that take users out and
// put them back, several arrivals at once, some in picked groups and
// some in the smallest-group fallback. A size sum per interval cannot
// tell a user listed twice plus a user missing from a partition; this
// can.
func TestGroupsPartitionPopulation(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			cfg := fastConfig(11)
			cfg.NumUsers = 40
			cfg.NumIntervals = 6
			cfg.RegroupEvery = 2
			cfg.ChurnPerInterval = 0.2
			cfg.Parallelism = par
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < s.cfg.WarmupIntervals; w++ {
				if err := s.WarmupIntervalContext(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Train(); err != nil {
				t.Fatal(err)
			}
			if err := s.BuildGroupsContext(ctx); err != nil {
				t.Fatal(err)
			}
			checkPartition(t, s, "construction")
			tr := NewTrace()
			for i := 0; i < cfg.NumIntervals; i++ {
				if err := s.RunIntervalContext(ctx, i, tr); err != nil {
					t.Fatal(err)
				}
				checkPartition(t, s, fmt.Sprintf("interval %d", i))
			}
			if s.churned == 0 || len(s.stability) == 0 {
				t.Fatalf("%d churned, %d regroups: the run must exercise both", s.churned, len(s.stability))
			}
		})
	}
	t.Run("splice", func(t *testing.T) {
		s := builtTestCell(t)
		var migrants, leavers []int
		for _, id := range s.UserIDs() {
			switch id % 5 {
			case 0, 2:
				migrants = append(migrants, id)
			case 4:
				leavers = append(leavers, id)
			}
		}
		handles := make([]User, len(migrants))
		for i, id := range migrants {
			handles[i], _ = s.Member(id)
		}
		groups := make([]int, len(handles))
		s.NearestGroups(handles, groups)
		for i := 0; i < len(groups); i += 3 {
			groups[i] = -1
		}
		if err := s.Splice(migrants, nil, nil); err != nil {
			t.Fatal(err)
		}
		checkPartition(t, s, "departures")
		if err := s.Splice(leavers, handles, groups); err != nil {
			t.Fatal(err)
		}
		checkPartition(t, s, "arrivals")
	})
}
