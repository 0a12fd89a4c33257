package radio

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dtmsvs/internal/channel"
)

func members(snrs ...float64) []MemberSNR {
	out := make([]MemberSNR, len(snrs))
	for i, s := range snrs {
		out[i] = MemberSNR{UserID: i, SNRdB: s}
	}
	return out
}

func TestGroupRateWorstMember(t *testing.T) {
	p := channel.DefaultParams()
	if _, err := GroupRate(p, nil); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	r, err := GroupRate(p, members(20, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	want := p.RateBps(0)
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("group rate %v, want worst-member %v", r, want)
	}
}

// Adding a member can never increase the group rate.
func TestGroupRateMonotoneProperty(t *testing.T) {
	p := channel.DefaultParams()
	f := func(snrsRaw []float64, extra float64) bool {
		if len(snrsRaw) == 0 {
			return true
		}
		snrs := make([]float64, 0, len(snrsRaw))
		for _, s := range snrsRaw {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				s = 0
			}
			snrs = append(snrs, math.Mod(s, 40))
		}
		if math.IsNaN(extra) || math.IsInf(extra, 0) {
			extra = 0
		}
		base, err := GroupRate(p, members(snrs...))
		if err != nil {
			return false
		}
		bigger, err := GroupRate(p, members(append(snrs, math.Mod(extra, 40))...))
		if err != nil {
			return false
		}
		return bigger <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRBDemand(t *testing.T) {
	p := channel.DefaultParams()
	if _, err := RBDemand(p, members(10), 0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := RBDemand(p, nil, 1e6); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	// SNR 0 dB → 180 kbps/RB; 1 Mbps needs ceil(1e6/180e3) = 6 RBs.
	n, err := RBDemand(p, members(0, 30), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("rb demand %d, want 6", n)
	}
	// Better worst-user → fewer RBs.
	n2, err := RBDemand(p, members(20, 30), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if n2 >= n {
		t.Fatalf("better group demands %d >= %d", n2, n)
	}
}

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
	if s.Free() != 0 || s.Utilization() != 1.0 {
		t.Fatalf("free %d util %v", s.Free(), s.Utilization())
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
