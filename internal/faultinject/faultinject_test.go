package faultinject

import "testing"

// TestCellPlan: deterministic per seed, fields always in range, and
// revival — when scheduled — strictly after the failure and inside
// the run. Over many seeds both revival outcomes occur.
func TestCellPlan(t *testing.T) {
	var revived, never int
	for seed := int64(0); seed < 400; seed++ {
		f := CellPlan(seed, 6, 12)
		if f != CellPlan(seed, 6, 12) {
			t.Fatalf("seed %d: cell plan not deterministic", seed)
		}
		if f.Cell < 0 || f.Cell >= 6 {
			t.Fatalf("seed %d: cell %d out of range", seed, f.Cell)
		}
		if f.FailAt < 0 || f.FailAt >= 12 {
			t.Fatalf("seed %d: failAt %d out of range", seed, f.FailAt)
		}
		switch {
		case f.ReviveAt < 0:
			never++
		case f.ReviveAt <= f.FailAt || f.ReviveAt >= 12:
			t.Fatalf("seed %d: reviveAt %d outside (%d, 12)", seed, f.ReviveAt, f.FailAt)
		default:
			revived++
		}
	}
	if revived == 0 || never == 0 {
		t.Fatalf("revival coin never landed both ways: revived=%d never=%d", revived, never)
	}
	// Degenerate dimensions clamp instead of panicking.
	if f := CellPlan(3, 0, 0); f.Cell != 0 || f.FailAt != 0 || f.ReviveAt != -1 {
		t.Fatalf("degenerate plan: %+v", f)
	}
}
