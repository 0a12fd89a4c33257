package radio

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSchedulerLifecycle(t *testing.T) {
	if _, err := NewScheduler(0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	s, err := NewScheduler(100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != 100 || s.Used() != 0 || s.Free() != 100 {
		t.Fatal("initial scheduler state")
	}
	if err := s.Allocate(40); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(60); err != nil {
		t.Fatal(err)
	}
	if s.Free() != 0 || s.Used() != 100 {
		t.Fatalf("free %d used %d", s.Free(), s.Used())
	}
	if err := s.Allocate(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if err := s.Allocate(0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	s.Reset()
	if s.Used() != 0 || s.Free() != 100 {
		t.Fatal("reset failed")
	}
}

// Sum of allocations never exceeds the budget regardless of request
// pattern.
func TestSchedulerBudgetInvariant(t *testing.T) {
	f := func(reqs []uint8) bool {
		s, err := NewScheduler(50)
		if err != nil {
			return false
		}
		var sum int
		for _, r := range reqs {
			rbs := int(r%20) + 1
			if s.Allocate(rbs) == nil { // errors allowed
				sum += rbs
			}
			if s.Used() > s.Total() {
				return false
			}
		}
		return sum == s.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
