package segment

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPlanValidation(t *testing.T) {
	if _, _, err := Plan(1, 0, 4, 2); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, _, err := Plan(1, 30, 0, 2); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, _, err := Plan(-1, 30, 4, 2); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, _, err := Plan(1, 30, 4, -1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestPlanKnownCases(t *testing.T) {
	tests := []struct {
		name                     string
		watch, dur, seg          float64
		depth                    int
		wantDelivered, wantWaste float64
	}{
		{"watch to end wastes nothing", 30, 30, 4, 2, 30, 0},
		{"swipe mid-segment", 5, 30, 4, 0, 8, 3},
		{"prefetch adds waste", 5, 30, 4, 2, 16, 11},
		{"prefetch clamped at video end", 27, 30, 4, 5, 30, 3},
		{"instant swipe still fetched first segment", 0, 30, 4, 0, 4, 4},
		{"instant swipe with prefetch", 0, 30, 4, 2, 12, 12},
		{"watch beyond duration clamps", 99, 30, 4, 2, 30, 0},
		{"exact segment boundary", 8, 30, 4, 0, 8, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, w, err := Plan(tt.watch, tt.dur, tt.seg, tt.depth)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d-tt.wantDelivered) > 1e-9 || math.Abs(w-tt.wantWaste) > 1e-9 {
				t.Fatalf("Plan = (%v, %v), want (%v, %v)", d, w, tt.wantDelivered, tt.wantWaste)
			}
		})
	}
}

// Invariants: watch ≤ delivered ≤ dur; waste = delivered − min(watch,dur);
// delivered is monotone in depth.
func TestPlanInvariants(t *testing.T) {
	f := func(rawWatch, rawDur uint16, rawDepth uint8) bool {
		watch := float64(rawWatch%600) / 10
		dur := 1 + float64(rawDur%600)/10
		depth := int(rawDepth % 8)
		const seg = 4.0
		d, w, err := Plan(watch, dur, seg, depth)
		if err != nil {
			return false
		}
		clampedWatch := math.Min(watch, dur)
		if d < clampedWatch-1e-9 || d > dur+1e-9 {
			return false
		}
		if math.Abs(w-(d-clampedWatch)) > 1e-9 {
			return false
		}
		// Monotone in depth.
		d2, _, err := Plan(watch, dur, seg, depth+1)
		if err != nil {
			return false
		}
		return d2 >= d-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Waste is non-increasing in watch time for fixed depth: the longer
// the group watches, the less of the prefetch is wasted (relative to
// the delivered prefix).
func TestWasteShrinksTowardCompletion(t *testing.T) {
	const dur, seg = 32.0, 4.0
	prevWaste := math.Inf(1)
	for watch := 0.0; watch <= dur; watch += seg {
		_, w, err := Plan(watch, dur, seg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if w > prevWaste+1e-9 {
			t.Fatalf("waste increased at watch=%v: %v > %v", watch, w, prevWaste)
		}
		prevWaste = w
	}
	if prevWaste != 0 {
		t.Fatalf("completion waste %v", prevWaste)
	}
}
