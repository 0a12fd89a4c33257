// Package cli provides the small markdown-table writer behind
// dtreport's reports.
package cli

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrTable indicates inconsistent table input.
var ErrTable = errors.New("cli: invalid table")

// Table accumulates rows under a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column names.
func NewTable(columns ...string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("table without columns: %w", ErrTable)
	}
	return &Table{header: columns}, nil
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) error {
	if len(cells) != len(t.header) {
		return fmt.Errorf("row of %d cells for %d columns: %w", len(cells), len(t.header), ErrTable)
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavored markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.header, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// Percent formats a fraction as a percentage string.
func Percent(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
