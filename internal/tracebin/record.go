package tracebin

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// GroupIntervalRecord is one (interval, group) row of the output
// trace: predicted vs measured demand.
type GroupIntervalRecord struct {
	Interval     int     `json:"interval"`
	GroupID      int     `json:"groupId"`
	Size         int     `json:"size"`
	PredictedRBs float64 `json:"predictedRBs"`
	ActualRBs    float64 `json:"actualRBs"`
	// AllocatedRBs is the admission grant when the scenario sets an
	// RB budget (0 otherwise).
	AllocatedRBs    int     `json:"allocatedRBs"`
	PredictedCycles float64 `json:"predictedCycles"`
	ActualCycles    float64 `json:"actualCycles"`
	PredictedBits   float64 `json:"predictedBits"`
	ActualBits      float64 `json:"actualBits"`
	// Waste bits are the delivered-but-unplayed share of traffic
	// caused by swiping under segment prefetching.
	PredictedWasteBits float64 `json:"predictedWasteBits"`
	ActualWasteBits    float64 `json:"actualWasteBits"`
	// ActualEngagementS is the measured mean per-member watch seconds.
	ActualEngagementS float64 `json:"actualEngagementS"`
	WorstSNRdB        float64 `json:"worstSNRdB"`
	BitrateBps        float64 `json:"bitrateBps"`
}

// Record is one trace row: a group-interval record plus the serving
// cell. BS is -1 for the monolithic engine, whose groups are
// campus-wide; its JSON and CSV forms then match the monolithic trace
// schema exactly (no bs field). Int fields are stored as 4-byte values
// on the binary wire — Flush rejects a value outside int32 range
// rather than truncating — and floats keep their exact IEEE-754 bits,
// so a decoded record is bit-identical to the encoded one.
type Record struct {
	BS int
	GroupIntervalRecord
}

// BinRecord tags the row with its serving cell (-1 for monolithic).
func (r GroupIntervalRecord) BinRecord(bs int) Record {
	return Record{BS: bs, GroupIntervalRecord: r}
}

// MarshalJSON emits the cluster schema (leading "bs") for cell
// records and the monolithic schema for BS < 0.
func (r Record) MarshalJSON() ([]byte, error) {
	if r.BS < 0 {
		return json.Marshal(r.GroupIntervalRecord)
	}
	return json.Marshal(struct {
		BS int `json:"bs"`
		GroupIntervalRecord
	}{r.BS, r.GroupIntervalRecord})
}

// UnmarshalJSON accepts both schemas: a missing "bs" field decodes to
// BS = -1 (a monolithic record).
func (r *Record) UnmarshalJSON(data []byte) error {
	aux := struct {
		BS *int `json:"bs"`
		*GroupIntervalRecord
	}{GroupIntervalRecord: &r.GroupIntervalRecord}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.BS = -1
	if aux.BS != nil {
		r.BS = *aux.BS
	}
	return nil
}

// Column kinds, as written in the schema.
const (
	colI32 = 0
	colF64 = 1
)

// column binds one schema entry to its Record field.
type column struct {
	name string
	kind uint8
	i    func(*Record) *int
	f    func(*Record) *float64
}

// columns is the one list of the row's fields. It drives the binary
// encoder, decoder and header schema, and the CSV header, row writer
// and row parser; its names are the CSV headers. The monolithic CSV
// schema is every column but the leading "bs".
var columns = []column{
	{name: "bs", kind: colI32, i: func(r *Record) *int { return &r.BS }},
	{name: "interval", kind: colI32, i: func(r *Record) *int { return &r.Interval }},
	{name: "group_id", kind: colI32, i: func(r *Record) *int { return &r.GroupID }},
	{name: "size", kind: colI32, i: func(r *Record) *int { return &r.Size }},
	{name: "predicted_rbs", kind: colF64, f: func(r *Record) *float64 { return &r.PredictedRBs }},
	{name: "actual_rbs", kind: colF64, f: func(r *Record) *float64 { return &r.ActualRBs }},
	{name: "allocated_rbs", kind: colI32, i: func(r *Record) *int { return &r.AllocatedRBs }},
	{name: "predicted_cycles", kind: colF64, f: func(r *Record) *float64 { return &r.PredictedCycles }},
	{name: "actual_cycles", kind: colF64, f: func(r *Record) *float64 { return &r.ActualCycles }},
	{name: "predicted_bits", kind: colF64, f: func(r *Record) *float64 { return &r.PredictedBits }},
	{name: "actual_bits", kind: colF64, f: func(r *Record) *float64 { return &r.ActualBits }},
	{name: "predicted_waste_bits", kind: colF64, f: func(r *Record) *float64 { return &r.PredictedWasteBits }},
	{name: "actual_waste_bits", kind: colF64, f: func(r *Record) *float64 { return &r.ActualWasteBits }},
	{name: "actual_engagement_s", kind: colF64, f: func(r *Record) *float64 { return &r.ActualEngagementS }},
	{name: "worst_snr_db", kind: colF64, f: func(r *Record) *float64 { return &r.WorstSNRdB }},
	{name: "bitrate_bps", kind: colF64, f: func(r *Record) *float64 { return &r.BitrateBps }},
}

// columnNames holds every column's name, in schema order.
var columnNames = func() []string {
	names := make([]string, len(columns))
	for i := range columns {
		names[i] = columns[i].name
	}
	return names
}()

// csvSchema is the CSV schema's column subset: all of them for cell
// rows, all but "bs" for monolithic ones.
func csvSchema(cell bool) []column {
	if cell {
		return columns
	}
	return columns[1:]
}

// CSVHeader returns the CSV header row: the cluster schema (leading
// "bs") when cell is set, else the monolithic schema. The slice is
// shared and must not be modified.
func CSVHeader(cell bool) []string {
	if cell {
		return columnNames
	}
	return columnNames[1:]
}

// AppendCSV appends the record's CSV fields to dst in
// CSVHeader(r.BS >= 0) order. Floats carry 10 significant digits.
func (r *Record) AppendCSV(dst []string) []string {
	for _, c := range csvSchema(r.BS >= 0) {
		if c.kind == colI32 {
			dst = append(dst, strconv.Itoa(*c.i(r)))
		} else {
			dst = append(dst, strconv.FormatFloat(*c.f(r), 'g', 10, 64))
		}
	}
	return dst
}

// ParseCSV decodes one CSV row laid out as CSVHeader(cell). A
// monolithic row decodes with BS = -1.
func ParseCSV(row []string, cell bool) (Record, error) {
	rec := Record{BS: -1}
	cols := csvSchema(cell)
	if len(row) != len(cols) {
		return rec, fmt.Errorf("%d fields, want %d", len(row), len(cols))
	}
	for i, c := range cols {
		if c.kind == colI32 {
			v, err := strconv.Atoi(row[i])
			if err != nil {
				return rec, fmt.Errorf("column %d: %w", i, err)
			}
			*c.i(&rec) = v
			continue
		}
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			return rec, fmt.Errorf("column %d: %w", i, err)
		}
		*c.f(&rec) = v
	}
	return rec, nil
}
