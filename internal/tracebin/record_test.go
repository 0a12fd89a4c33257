package tracebin

import (
	"reflect"
	"slices"
	"testing"
)

// distinctRecord returns a Record whose every field — BS and each
// GroupIntervalRecord field — holds a distinct non-zero value (field k
// holds k+1), plus the fields' names in that order.
func distinctRecord(t *testing.T) (Record, []string) {
	t.Helper()
	var r Record
	v := reflect.ValueOf(&r).Elem()
	var names []string
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue
		}
		fv := v.FieldByIndex(f.Index)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(int64(len(names) + 1))
		case reflect.Float64:
			fv.SetFloat(float64(len(names) + 1))
		default:
			t.Fatalf("field %s has kind %s, which no column kind stores", f.Name, fv.Kind())
		}
		names = append(names, f.Name)
	}
	return r, names
}

// TestColumnsBindEveryField fails when a Record field is not bound by
// exactly one column, or a column binds no field: each field carries a
// distinct value, and the value a column reads names its field.
func TestColumnsBindEveryField(t *testing.T) {
	r, fields := distinctRecord(t)
	boundBy := make([][]string, len(fields))
	for _, c := range columns {
		var v float64
		if c.kind == colI32 {
			v = float64(*c.i(&r))
		} else {
			v = *c.f(&r)
		}
		k := int(v) - 1
		if k < 0 || k >= len(fields) || float64(k+1) != v {
			t.Errorf("column %s reads %v, which no field holds", c.name, v)
			continue
		}
		boundBy[k] = append(boundBy[k], c.name)
	}
	for k, cols := range boundBy {
		if len(cols) != 1 {
			t.Errorf("field %s is bound by columns %v, want exactly one", fields[k], cols)
		}
	}
}

// TestCSVSchemaIsColumnTable pins the CSV schema to the column table:
// the cluster header is every column name, the monolithic header drops
// "bs", and a row written in either schema parses back to the record.
func TestCSVSchemaIsColumnTable(t *testing.T) {
	var names []string
	for _, c := range columns {
		names = append(names, c.name)
	}
	if got := CSVHeader(true); !slices.Equal(got, names) {
		t.Errorf("cluster CSV header %v, want %v", got, names)
	}
	if got := CSVHeader(false); !slices.Equal(got, names[1:]) || names[0] != "bs" {
		t.Errorf("monolithic CSV header %v, want %v without bs", got, names)
	}
	r, _ := distinctRecord(t)
	for _, bs := range []int{-1, r.BS} {
		r.BS = bs
		row := r.AppendCSV(nil)
		if len(row) != len(CSVHeader(bs >= 0)) {
			t.Fatalf("bs %d: %d fields under a %d-column header", bs, len(row), len(CSVHeader(bs >= 0)))
		}
		back, err := ParseCSV(row, bs >= 0)
		if err != nil {
			t.Fatalf("bs %d: %v", bs, err)
		}
		if back != r {
			t.Fatalf("bs %d: CSV round trip %+v, want %+v", bs, back, r)
		}
	}
	if _, err := ParseCSV(CSVHeader(false)[1:], false); err == nil {
		t.Fatal("short row accepted")
	}
}
