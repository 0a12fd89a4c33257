package coord

import (
	"context"
	"errors"
	"testing"
)

// finalStatsBlob runs the unit scenario through a two-worker
// supervisor and returns the stats blob worker 0 attached to its final
// interval's boundary frame, byte for byte.
func finalStatsBlob(tb testing.TB) []byte {
	tb.Helper()
	cfg := Config{Cluster: testClusterConfig(5, 1), Workers: 2}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	d := cfg.Cluster.Defaulted()
	for i := 0; i < d.Sim.WarmupIntervals; i++ {
		if err := s.WarmupStep(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.TrainAndBuild(ctx); err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < d.Sim.NumIntervals; n++ {
		if _, err := s.StepInterval(ctx, n); err != nil {
			tb.Fatal(err)
		}
	}
	return append([]byte(nil), s.handles[0].stats...)
}

// TestDecodeWorkerStats: a real final-boundary blob decodes to the
// worker's cells and cache counts; damaged or hostile blobs fail with
// ErrProtocol.
func TestDecodeWorkerStats(t *testing.T) {
	blob := finalStatsBlob(t)
	ws, err := decodeWorkerStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Cells) != 2 || ws.Cells[0].BS != 0 || ws.Cells[1].BS != 1 || ws.Hits+ws.Misses == 0 {
		t.Fatalf("worker 0 stats %+v", ws)
	}
	for name, bad := range map[string]string{
		"truncated":       string(blob[:len(blob)/2]),
		"wrong type":      `{"cells":"x","hits":1}`,
		"negative hits":   `{"cells":[],"hits":-1,"misses":2}`,
		"negative misses": `{"cells":[],"hits":1,"misses":-2}`,
		"trailing bytes":  string(blob) + "}",
	} {
		if _, err := decodeWorkerStats([]byte(bad)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzDecodeWorkerStats: arbitrary stats blobs decode or fail with
// ErrProtocol — never panic — and decoded cache counts are never
// negative, so the merged hit rate stays a ratio.
func FuzzDecodeWorkerStats(f *testing.F) {
	blob := finalStatsBlob(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"cells":[{"bs":"zero"}],"hits":1.5,"misses":"2"}`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		ws, err := decodeWorkerStats(blob)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if ws.Hits < 0 || ws.Misses < 0 {
			t.Fatalf("negative cache counts accepted: %+v", ws)
		}
	})
}
