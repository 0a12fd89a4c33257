package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/faultinject"
)

// helloSeed builds a real hello payload for worker 0 of a 2-worker
// supervisor, with the given resume blob (nil for a fresh worker).
func helloSeed(t testing.TB, resume []byte) []byte {
	t.Helper()
	cfg := Config{
		Cluster:   testClusterConfig(3, 1),
		Workers:   2,
		Heartbeat: 900 * time.Microsecond,
		Faults:    []faultinject.ProcFault{{Worker: 0, Interval: 2, Kind: faultinject.ProcHang}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resume != nil {
		if err := s.SetResume([][]byte{resume, resume}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := s.helloFrame(s.handles[0])
	if err != nil {
		t.Fatal(err)
	}
	return f[5 : len(f)-4]
}

// helloWith re-encodes a hello payload around a hand-edited header.
func helloWith(t testing.TB, edit func(*helloMsg)) []byte {
	t.Helper()
	hm, _, err := decodeHello(helloSeed(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	edit(&hm)
	jb, err := json.Marshal(hm)
	if err != nil {
		t.Fatal(err)
	}
	var e checkpoint.Enc
	e.Blob(jb)
	e.Blob(nil)
	return e.Bytes()
}

// TestDecodeHello: the supervisor's own hello round-trips, with the
// sub-millisecond beat rounded up to 1 ms rather than truncated to the
// worker's "use the default" 0, and out-of-range periods are refused
// as ErrProtocol before any ticker or timer sees them.
func TestDecodeHello(t *testing.T) {
	resume := []byte("resume-blob")
	hm, got, err := decodeHello(helloSeed(t, resume))
	if err != nil {
		t.Fatal(err)
	}
	if hm.Proto != protoVersion || hm.Index != 0 || hm.Count != 2 || len(hm.Faults) != 1 {
		t.Fatalf("header %+v", hm)
	}
	if hm.HeartbeatMS != 1 {
		t.Fatalf("heartbeatMs %d, want 900µs rounded up to 1", hm.HeartbeatMS)
	}
	if !bytes.Equal(got, resume) {
		t.Fatalf("resume blob %q", got)
	}

	for name, edit := range map[string]func(*helloMsg){
		"negative heartbeat": func(h *helloMsg) { h.HeartbeatMS = -1 },
		"huge heartbeat":     func(h *helloMsg) { h.HeartbeatMS = 1 << 50 },
		"negative hang":      func(h *helloMsg) { h.HangMS = -5 },
		"huge hang":          func(h *helloMsg) { h.HangMS = maxHelloMS + 1 },
	} {
		if _, _, err := decodeHello(helloWith(t, edit)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := New(Config{Cluster: testClusterConfig(3, 1), Heartbeat: 2 * time.Hour}); !errors.Is(err, ErrProtocol) {
		t.Errorf("2h heartbeat accepted by New: %v", err)
	}
}

// FuzzDecodeHello: arbitrary hello payloads decode or fail with
// ErrProtocol — never panic — and a decoded header's periods are
// always in range, so the worker's ticker gets a positive period.
func FuzzDecodeHello(f *testing.F) {
	f.Add(helloSeed(f, nil))
	f.Add(helloSeed(f, bytes.Repeat([]byte{0xC4}, 64)))
	f.Add([]byte{})
	f.Add(helloWith(f, func(h *helloMsg) { h.HeartbeatMS = 1 << 50 }))

	f.Fuzz(func(t *testing.T, payload []byte) {
		hm, _, err := decodeHello(payload)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if hm.HeartbeatMS < 0 || hm.HeartbeatMS > maxHelloMS || hm.HangMS < 0 || hm.HangMS > maxHelloMS {
			t.Fatalf("out-of-range periods accepted: %+v", hm)
		}
	})
}
