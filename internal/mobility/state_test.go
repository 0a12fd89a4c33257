package mobility

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"dtmsvs/internal/checkpoint"
)

// models builds one walker of each kind from the given seed.
func models(t *testing.T, seed int64) []Model {
	t.Helper()
	m := CampusMap()
	rng := rand.New(rand.NewSource(seed))
	wp, err := NewRandomWaypoint(m, 0.4, 1.2, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLandmarkWalk(m, 4, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGaussMarkov(m, 0.9, 0.9, 0.2, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{wp, lw, gm, &Static{P: m.RandomPoint(rng)}}
}

func encodedState(t *testing.T, m Model) []byte {
	t.Helper()
	var e checkpoint.Enc
	if err := EncodeState(&e, m); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestStateRoundTrip: every kind's state decodes into a walker its
// constructor built, which then re-encodes to the same bytes and
// stands where the encoded one stood.
func TestStateRoundTrip(t *testing.T) {
	src, dst := models(t, 1), models(t, 1)
	for i, m := range src {
		for range 40 {
			if _, err := m.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
		enc := encodedState(t, m)
		d := checkpoint.NewDec(enc)
		if err := DecodeState(d, dst[i]); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(encodedState(t, dst[i]), enc) || dst[i].Position() != m.Position() {
			t.Fatalf("%T: decoded walker differs from the encoded one", m)
		}
	}
	type unknown struct{ Static }
	if err := EncodeState(&checkpoint.Enc{}, &unknown{}); !errors.Is(err, ErrParam) {
		t.Fatalf("unknown model: want ErrParam, got %v", err)
	}
}

// TestDecodeStateRejects: a kind tag for another model, an unknown
// tag, a truncated state and a landmark walker's next stop outside its
// route are refused as corrupt — the last would index past the route
// on the walker's next Advance.
func TestDecodeStateRejects(t *testing.T) {
	ms := models(t, 2)
	walk := ms[1].(*LandmarkWalk)
	enc := encodedState(t, walk)
	next := func(v int64) []byte {
		b := bytes.Clone(enc)
		binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(v))
		return b
	}
	for _, tc := range []struct {
		name string
		m    Model
		data []byte
	}{
		{"waypoint state into a landmark walker", walk, encodedState(t, ms[0])},
		{"landmark state into a static user", ms[3], enc},
		{"unknown kind", ms[3], []byte{9}},
		{"truncated", walk, enc[:len(enc)-1]},
		{"next past the route", walk, next(1 << 20)},
		{"next at the route's length", walk, next(int64(len(walk.route)))},
		{"negative next", walk, next(-1)},
	} {
		if err := DecodeState(checkpoint.NewDec(tc.data), tc.m); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: want checkpoint.ErrCorrupt, got %v", tc.name, err)
		}
	}
	if err := DecodeState(checkpoint.NewDec(next(int64(len(walk.route)-1))), walk); err != nil {
		t.Fatalf("last stop of the route: %v", err)
	}
	if _, err := walk.Advance(1); err != nil {
		t.Fatal(err)
	}
}
