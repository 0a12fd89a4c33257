package faultinject

import (
	"bytes"
	"errors"
	"testing"
)

// collector is a minimal RecordSink for the wrapper tests.
type collector struct {
	records []int
	flushes int
}

func (c *collector) WriteRecord(r int) error { c.records = append(c.records, r); return nil }
func (c *collector) Flush() error            { c.flushes++; return nil }

// TestWriterFaults: FailWrite consumes nothing, ShortWrite leaks half,
// and unscheduled calls pass through untouched.
func TestWriterFaults(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf,
		Fault{Mode: FailWrite, N: 2},
		Fault{Mode: ShortWrite, N: 4},
	)
	if _, err := w.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("bbbb"))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("FailWrite: n=%d err=%v", n, err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "write" || fe.Call != 2 {
		t.Fatalf("FailWrite error shape: %+v", fe)
	}
	if buf.String() != "aaaa" {
		t.Fatalf("FailWrite consumed bytes: %q", buf.String())
	}
	if _, err := w.Write([]byte("cccc")); err != nil {
		t.Fatal(err)
	}
	n, err = w.Write([]byte("dddd"))
	if n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("ShortWrite: n=%d err=%v", n, err)
	}
	if !errors.As(err, &fe) || fe.Op != "write" || fe.Call != 4 {
		t.Fatalf("ShortWrite error shape: %+v", fe)
	}
	if buf.String() != "aaaaccccdd" {
		t.Fatalf("ShortWrite leaked wrong bytes: %q", buf.String())
	}
	if got := w.Writes(); got != 4 {
		t.Fatalf("Writes: %d", got)
	}
}

// TestSinkFaults: record-level injection fires before the wrapped
// sink sees anything, flush faults fire on their scheduled call, and
// counts include calls that fail.
func TestSinkFaults(t *testing.T) {
	var c collector
	s := Wrap[int](&c,
		Fault{Mode: FailWrite, N: 2},
		Fault{Mode: FailFlush, N: 2},
	)
	if err := s.WriteRecord(10); err != nil {
		t.Fatal(err)
	}
	err := s.WriteRecord(11)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected write fault, got %v", err)
	}
	if len(c.records) != 1 {
		t.Fatalf("fault leaked a record: %v", c.records)
	}
	// Call 3 is past the schedule and succeeds.
	if err := s.WriteRecord(11); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected flush fault, got %v", err)
	}
	if c.flushes != 1 {
		t.Fatalf("flush fault reached the sink: %d", c.flushes)
	}
	if s.Writes() != 3 || s.Flushes() != 2 {
		t.Fatalf("counts: writes=%d flushes=%d", s.Writes(), s.Flushes())
	}
}

// TestPlan: deterministic per seed and in range.
func TestPlan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		f := Plan(seed, 10)
		if f != Plan(seed, 10) {
			t.Fatalf("seed %d: plan not deterministic", seed)
		}
		if f.N < 1 || f.N > 10 {
			t.Fatalf("seed %d: N=%d out of range", seed, f.N)
		}
		if f.Mode < FailWrite || f.Mode > FailFlush {
			t.Fatalf("seed %d: mode %v", seed, f.Mode)
		}
	}
	if f := Plan(3, 0); f.N != 1 {
		t.Fatalf("degenerate calls: %+v", f)
	}
}

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
