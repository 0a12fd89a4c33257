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

// TestProcPlan: deterministic per seed, fields always in range, and
// every fault kind occurs across many seeds.
func TestProcPlan(t *testing.T) {
	var kinds [3]int
	for seed := int64(0); seed < 400; seed++ {
		f := ProcPlan(seed, 4, 8)
		if f != ProcPlan(seed, 4, 8) {
			t.Fatalf("seed %d: proc plan not deterministic", seed)
		}
		if f.Worker < 0 || f.Worker >= 4 {
			t.Fatalf("seed %d: worker %d out of range", seed, f.Worker)
		}
		if f.Interval < 0 || f.Interval >= 8 {
			t.Fatalf("seed %d: interval %d out of range", seed, f.Interval)
		}
		if f.Kind > ProcGarbage {
			t.Fatalf("seed %d: kind %d out of range", seed, f.Kind)
		}
		kinds[f.Kind]++
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("fault kind %s never drawn", ProcFaultKind(k))
		}
	}
	// Degenerate dimensions clamp instead of panicking.
	if f := ProcPlan(3, 0, 0); f.Worker != 0 || f.Interval != 0 {
		t.Fatalf("degenerate plan: %+v", f)
	}
	// Kind names are stable (they appear in logs and CI output).
	if ProcKill.String() != "kill" || ProcHang.String() != "hang" || ProcGarbage.String() != "garbage" {
		t.Fatalf("kind names changed")
	}
}
