package cli

import (
	"bytes"
	"errors"
	"testing"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(); !errors.Is(err, ErrTable) {
		t.Fatalf("want ErrTable, got %v", err)
	}
}

func TestAddRowArity(t *testing.T) {
	tb, err := NewTable("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("x"); !errors.Is(err, ErrTable) {
		t.Fatalf("want ErrTable, got %v", err)
	}
	if err := tb.AddRow("x", 1); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb, err := NewTable("k", "acc")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(2, Percent(0.9502)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	want := "| k | acc |\n| --- | --- |\n| 2 | 95.02% |\n"
	if buf.String() != want {
		t.Fatalf("markdown:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.5) != "50.00%" {
		t.Fatalf("percent %q", Percent(0.5))
	}
}
