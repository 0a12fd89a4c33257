package dtmsvs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsvs/internal/tracebin"
)

func bufioReader(data []byte) *bufio.Reader {
	return bufio.NewReader(bytes.NewReader(data))
}

// bufferedRun steps a fresh session against a BufferedSink, returning
// the canonical record stream the binary round trip must reproduce,
// plus the per-interval record counts.
func bufferedRun(t *testing.T, open func(opts ...SessionOption) (Session, error)) ([]TraceRecord, []int) {
	t.Helper()
	var sink BufferedSink
	var perInterval []int
	s, err := open(
		WithSink(&sink),
		WithObserver(func(rep IntervalReport) { perInterval = append(perInterval, len(rep.Records)) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	return sink.Records, perInterval
}

// binRun steps the same scenario against a BinarySink and returns the
// encoded stream.
func binRun(t *testing.T, open func(opts ...SessionOption) (Session, error), opts ...BinarySinkOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink, err := NewBinarySink(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := open(WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordBitsEqual compares two trace records field by field, floats
// by their IEEE-754 bits.
func recordBitsEqual(a, b TraceRecord) bool {
	ints := [][2]int{
		{a.BS, b.BS}, {a.Interval, b.Interval}, {a.GroupID, b.GroupID},
		{a.Size, b.Size}, {a.AllocatedRBs, b.AllocatedRBs},
	}
	for _, p := range ints {
		if p[0] != p[1] {
			return false
		}
	}
	floats := [][2]float64{
		{a.PredictedRBs, b.PredictedRBs}, {a.ActualRBs, b.ActualRBs},
		{a.PredictedCycles, b.PredictedCycles}, {a.ActualCycles, b.ActualCycles},
		{a.PredictedBits, b.PredictedBits}, {a.ActualBits, b.ActualBits},
		{a.PredictedWasteBits, b.PredictedWasteBits}, {a.ActualWasteBits, b.ActualWasteBits},
		{a.ActualEngagementS, b.ActualEngagementS}, {a.WorstSNRdB, b.WorstSNRdB},
		{a.BitrateBps, b.BitrateBps},
	}
	for _, p := range floats {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

func assertRecordsBitIdentical(t *testing.T, got, want []TraceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordBitsEqual(got[i], want[i]) {
			t.Fatalf("record %d not bit-identical:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestBinarySinkRoundTrip is the tentpole's equivalence guarantee:
// the binary stream a session writes decodes bit-identical to the
// BufferedSink record sequence, for both engines, Parallelism
// {1,4,8}, with and without compression; the cluster engine runs over
// one station (sN names the station count) and over NumBS of them.
func TestBinarySinkRoundTrip(t *testing.T) {
	type opener struct {
		name string
		open func(opts ...SessionOption) (Session, error)
	}
	var cases []opener
	for _, workers := range []int{1, 4, 8} {
		cfg := sessionTestConfig(31, workers)
		cases = append(cases, opener{
			name: "sim/p" + string(rune('0'+workers)),
			open: func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) },
		})
		for _, stations := range []int{1, cfg.NumBS} {
			ccfg := ClusterConfig{Sim: cfg}
			ccfg.Sim.NumBS = stations
			cases = append(cases, opener{
				name: "cluster/p" + string(rune('0'+workers)) + "/s" + string(rune('0'+stations)),
				open: func(opts ...SessionOption) (Session, error) { return OpenCluster(ccfg, opts...) },
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := bufferedRun(t, tc.open)
			for _, sub := range []struct {
				name string
				opts []BinarySinkOption
			}{
				{"plain", nil},
				{"compressed", []BinarySinkOption{WithBinaryCompression()}},
			} {
				t.Run(sub.name, func(t *testing.T) {
					data := binRun(t, tc.open, sub.opts...)
					got, err := tracebin.ReadAll(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					assertRecordsBitIdentical(t, got, want)
					// And through the format-agnostic entry point.
					auto, err := ReadTraceRecords(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					assertRecordsBitIdentical(t, auto, want)
				})
			}
		})
	}
}

// TestReadTraceRecordsAutoDetect runs a monolithic and a cluster
// scenario (the bs-prefixed schema) out through every writer this
// repo has and back through the single format-agnostic reader. JSON,
// NDJSON and bin must round-trip bit-identical; CSV's
// 10-significant-digit floats round-trip through re-encoding.
func TestReadTraceRecordsAutoDetect(t *testing.T) {
	mono := sessionTestConfig(33, 2)
	ccfg := clusterTestConfig(33, 2)
	type opener = func(opts ...SessionOption) (Session, error)
	type engine struct {
		name string
		open opener
		want []TraceRecord
	}
	engines := []*engine{
		{name: "mono", open: func(opts ...SessionOption) (Session, error) { return Open(mono, opts...) }},
		{name: "cluster", open: func(opts ...SessionOption) (Session, error) { return OpenCluster(ccfg, opts...) }},
	}
	for _, e := range engines {
		e.want, _ = bufferedRun(t, e.open)
		if len(e.want) == 0 || (e.want[0].BS >= 0) != (e.name == "cluster") {
			t.Fatalf("%s run: %d records, first %+v", e.name, len(e.want), e.want)
		}
	}
	// each runs one format's round trip for every engine.
	each := func(t *testing.T, roundTrip func(t *testing.T, open opener, want []TraceRecord)) {
		for _, e := range engines {
			t.Run(e.name, func(t *testing.T) { roundTrip(t, e.open, e.want) })
		}
	}

	t.Run("bin", func(t *testing.T) {
		each(t, func(t *testing.T, open opener, want []TraceRecord) {
			data := binRun(t, open)
			if got := detect(t, data); got != formatBin {
				t.Fatalf("detected %q", got)
			}
			got, err := ReadTraceRecords(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsBitIdentical(t, got, want)
		})
	})

	t.Run("ndjson", func(t *testing.T) {
		each(t, func(t *testing.T, open opener, want []TraceRecord) {
			var buf bytes.Buffer
			runSinkSession(t, open, NewNDJSONSink(&buf))
			if got := detect(t, buf.Bytes()); got != formatNDJSON {
				t.Fatalf("detected %q", got)
			}
			got, err := ReadTraceRecords(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsBitIdentical(t, got, want)
		})
	})

	t.Run("json", func(t *testing.T) {
		each(t, func(t *testing.T, _ opener, want []TraceRecord) {
			// The indented array dtsim -format json writes.
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(want); err != nil {
				t.Fatal(err)
			}
			if got := detect(t, buf.Bytes()); got != formatJSON {
				t.Fatalf("detected %q", got)
			}
			got, err := ReadTraceRecords(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsBitIdentical(t, got, want)
		})
	})

	t.Run("csv", func(t *testing.T) {
		each(t, func(t *testing.T, open opener, want []TraceRecord) {
			var buf bytes.Buffer
			runSinkSession(t, open, NewCSVSink(&buf))
			if got := detect(t, buf.Bytes()); got != formatCSV {
				t.Fatalf("detected %q", got)
			}
			got, err := ReadTraceRecords(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].BS != want[i].BS || got[i].Interval != want[i].Interval || got[i].GroupID != want[i].GroupID {
					t.Fatalf("CSV record %d keys differ:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			// CSV floats carry 10 significant digits; re-encoding the
			// parsed records must reproduce the stream byte for byte.
			var again bytes.Buffer
			cs := NewCSVSink(&again)
			for _, r := range got {
				if err := cs.WriteRecord(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := cs.Flush(); err != nil {
				t.Fatal(err)
			}
			if again.String() != buf.String() {
				t.Fatal("CSV parse/re-encode not a fixed point")
			}
		})
	})
}

func detect(t *testing.T, data []byte) traceFormat {
	t.Helper()
	return detectTraceFormat(bufioReader(data))
}

func runSinkSession(t *testing.T, open func(opts ...SessionOption) (Session, error), sink TraceSink) {
	t.Helper()
	s, err := open(WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceFileFormats: the file entry point decodes every format
// from disk, including cluster CSV with its bs column.
func TestReadTraceFileFormats(t *testing.T) {
	ccfg := clusterTestConfig(35, 2)
	open := func(opts ...SessionOption) (Session, error) { return OpenCluster(ccfg, opts...) }
	want, _ := bufferedRun(t, open)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(binPath, binRun(t, open), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordsBitIdentical(t, got, want)

	var csvBuf bytes.Buffer
	runSinkSession(t, open, NewCSVSink(&csvBuf))
	csvPath := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(csvPath, csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gotCSV, err := ReadTraceFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCSV) != len(want) {
		t.Fatalf("CSV file decoded %d records, want %d", len(gotCSV), len(want))
	}
	for i := range gotCSV {
		if gotCSV[i].BS != want[i].BS || gotCSV[i].GroupID != want[i].GroupID {
			t.Fatalf("CSV record %d keys differ", i)
		}
	}

	if _, err := ReadTraceFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

// TestReadTraceRecordsEmpty: an empty stream is an empty trace in
// every detected format.
func TestReadTraceRecordsEmpty(t *testing.T) {
	got, err := ReadTraceRecords(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %d records", err, len(got))
	}
}

// TestBinReaderTypedErrors pins the root sentinels: damage is
// ErrTraceCorrupt, a future version is ErrTraceVersion, and a torn
// tail still yields its whole-block prefix.
func TestBinReaderTypedErrors(t *testing.T) {
	cfg := sessionTestConfig(37, 1)
	open := func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) }
	data := binRun(t, open)

	mut := append([]byte(nil), data...)
	mut[len(mut)-3] ^= 0xFF
	got, err := tracebin.ReadAll(bytes.NewReader(mut))
	if !errors.Is(err, ErrTraceCorrupt) {
		t.Fatalf("corrupt CRC: want ErrTraceCorrupt, got %v", err)
	}
	want, _ := bufferedRun(t, open)
	if len(got) >= len(want) || len(got) == 0 {
		t.Fatalf("torn tail returned %d of %d records", len(got), len(want))
	}
	assertRecordsBitIdentical(t, got, want[:len(got)])

	mut = append([]byte(nil), data...)
	mut[8] = 0x7F
	if _, err := tracebin.ReadAll(bytes.NewReader(mut)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("future version: want ErrTraceVersion, got %v", err)
	}

	if _, err := tracebin.ReadAll(strings.NewReader("DTTRACEBjunk")); !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("garbage after magic: untyped error %v", err)
	}
}

// TestCSVSinkEmptyRunHeader: a session that ends before its first
// interval leaves a header-only CSV in its engine's schema. A
// BinarySink likewise leaves a valid header-only binary file.
func TestCSVSinkEmptyRunHeader(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the run never completes an interval

	t.Run("sim", func(t *testing.T) {
		var buf bytes.Buffer
		s, err := Open(sessionTestConfig(39, 1), WithSink(NewCSVSink(&buf)))
		if err != nil {
			t.Fatal(err)
		}
		if _, serr := s.Step(ctx); serr == nil {
			t.Fatal("cancelled step succeeded")
		}
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		const want = "interval,group_id,size,predicted_rbs,actual_rbs,allocated_rbs," +
			"predicted_cycles,actual_cycles,predicted_bits,actual_bits," +
			"predicted_waste_bits,actual_waste_bits,actual_engagement_s,worst_snr_db,bitrate_bps\n"
		if buf.String() != want {
			t.Fatalf("cancelled run CSV = %q, want the header %q", buf.String(), want)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		var buf bytes.Buffer
		s, err := OpenCluster(clusterTestConfig(39, 1), WithSink(NewCSVSink(&buf)))
		if err != nil {
			t.Fatal(err)
		}
		if _, serr := s.Step(ctx); serr == nil {
			t.Fatal("cancelled step succeeded")
		}
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		const want = "bs,interval,group_id,size,predicted_rbs,actual_rbs,allocated_rbs," +
			"predicted_cycles,actual_cycles,predicted_bits,actual_bits," +
			"predicted_waste_bits,actual_waste_bits,actual_engagement_s,worst_snr_db,bitrate_bps\n"
		if buf.String() != want {
			t.Fatalf("cancelled cluster run CSV = %q, want the header %q", buf.String(), want)
		}
	})

	t.Run("bin", func(t *testing.T) {
		var buf bytes.Buffer
		sink, err := NewBinarySink(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(sessionTestConfig(39, 1), WithSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		if _, serr := s.Step(ctx); serr == nil {
			t.Fatal("cancelled step succeeded")
		}
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if cerr := sink.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		got, err := ReadTraceRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("header-only binary trace unreadable: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("empty run decoded %d records", len(got))
		}
	})
}
