package qoe

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScoreValidation(t *testing.T) {
	for _, gi := range []GroupInterval{
		{BitrateBps: 0, EngagementS: 1},
		{BitrateBps: -1e6, EngagementS: 1},
		{BitrateBps: 1e6, EngagementS: -1},
	} {
		if _, err := ScoreInterval(gi); !errors.Is(err, ErrParam) {
			t.Fatalf("%+v: want ErrParam, got %v", gi, err)
		}
	}
}

// An interval nobody watched scores zero when the rung held.
func TestScoreEmpty(t *testing.T) {
	for _, prev := range []float64{0, 1.2e6} {
		q, err := ScoreInterval(GroupInterval{BitrateBps: 1.2e6, PrevBitrateBps: prev})
		if err != nil {
			t.Fatal(err)
		}
		if q != 0 {
			t.Fatalf("prev %v: empty interval QoE %v", prev, q)
		}
	}
}

func TestScoreSingleView(t *testing.T) {
	q, err := ScoreInterval(GroupInterval{BitrateBps: 400e3, EngagementS: 10})
	if err != nil {
		t.Fatal(err)
	}
	// log2(1+1) = 1 utility/s × 10 s.
	if math.Abs(q-10) > 1e-9 {
		t.Fatalf("QoE %v, want 10", q)
	}
}

func TestScoreSwitchPenalty(t *testing.T) {
	steady, err := ScoreInterval(GroupInterval{BitrateBps: 1.2e6, PrevBitrateBps: 1.2e6, EngagementS: 10})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ScoreInterval(GroupInterval{BitrateBps: 1.2e6, EngagementS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if steady != first {
		t.Fatalf("steady rung charged a switch: %v vs %v", steady, first)
	}
	// 2.5 Mbps → 400 kbps: the penalty is the utility gap, charged
	// whichever way the rung moved.
	down, err := ScoreInterval(GroupInterval{BitrateBps: 400e3, PrevBitrateBps: 2.5e6, EngagementS: 10})
	if err != nil {
		t.Fatal(err)
	}
	gap := math.Log2(1+2.5e6/400e3) - 1
	if math.Abs(down-(10-gap)) > 1e-9 {
		t.Fatalf("switched QoE %v, want %v", down, 10-gap)
	}
}

// Higher bitrate at equal watch time never lowers QoE (no switches).
func TestUtilityMonotoneInBitrate(t *testing.T) {
	f := func(rawA, rawB uint32) bool {
		a := 1e3 + float64(rawA%5000)*1e3
		b := 1e3 + float64(rawB%5000)*1e3
		lo, hi := math.Min(a, b), math.Max(a, b)
		qLo, err := ScoreInterval(GroupInterval{BitrateBps: lo, EngagementS: 10})
		if err != nil {
			return false
		}
		qHi, err := ScoreInterval(GroupInterval{BitrateBps: hi, EngagementS: 10})
		if err != nil {
			return false
		}
		return qHi >= qLo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreInterval(t *testing.T) {
	q1, err := ScoreInterval(GroupInterval{BitrateBps: 2.5e6, EngagementS: 100})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ScoreInterval(GroupInterval{BitrateBps: 400e3, EngagementS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if q1 <= q2 {
		t.Fatalf("higher bitrate interval QoE %v not above %v", q1, q2)
	}
	// Rung switch reduces QoE relative to steady state.
	steady, err := ScoreInterval(GroupInterval{BitrateBps: 2.5e6, PrevBitrateBps: 2.5e6, EngagementS: 100})
	if err != nil {
		t.Fatal(err)
	}
	switched, err := ScoreInterval(GroupInterval{BitrateBps: 2.5e6, PrevBitrateBps: 400e3, EngagementS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if switched >= steady {
		t.Fatalf("switched %v not below steady %v", switched, steady)
	}
}
