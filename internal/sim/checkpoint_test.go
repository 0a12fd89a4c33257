package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dtmsvs/internal/checkpoint"
)

// warmedEngine returns an engine whose users have browsed for a few
// intervals, so twins, links and calibration state are all off their
// construction values.
func warmedEngine(tb testing.TB) *Simulation {
	tb.Helper()
	s, err := New(fastConfig(3))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	for i := 0; i < 3; i++ {
		if err := s.WarmupIntervalContext(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func encodedUser(tb testing.TB, s *Simulation, u *user) []byte {
	tb.Helper()
	var e checkpoint.Enc
	if err := s.encodeUser(&e, u); err != nil {
		tb.Fatal(err)
	}
	return bytes.Clone(e.Bytes())
}

// TestUserCodecRoundTrip: every user's wire encoding — the unit of the
// "users" checkpoint section, a handover and a worker ack — decodes on
// a second engine of the same substrate into a user that re-encodes to
// the same bytes, and any cut or trailing byte is refused typed.
func TestUserCodecRoundTrip(t *testing.T) {
	src := warmedEngine(t)
	dst, err := New(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, u := range src.users {
		enc := encodedUser(t, src, u)
		d := checkpoint.NewDec(enc)
		back, err := dst.DecodeUser(d)
		if err == nil {
			err = d.Close()
		}
		if err != nil {
			t.Fatalf("user %d: %v", u.id, err)
		}
		if back.ID() != u.id || back.ServingBS() != u.link.BS().ID {
			t.Fatalf("user %d decoded as %d on BS %d", u.id, back.ID(), back.ServingBS())
		}
		if again := encodedUser(t, dst, back.u); !bytes.Equal(again, enc) {
			t.Fatalf("user %d: encode → decode → encode changed the bytes", u.id)
		}
	}

	enc := encodedUser(t, src, src.users[0])
	for n := range enc {
		if _, err := dst.DecodeUser(checkpoint.NewDec(enc[:n])); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("cut at %d of %d: want checkpoint.ErrCorrupt, got %v", n, len(enc), err)
		}
	}
	d := checkpoint.NewDec(append(enc, 0))
	if _, err := dst.DecodeUser(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("trailing byte: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// FuzzDecodeUser hammers the per-user decoder — the one that reads
// bytes another process wrote — with mutations of real encodings:
// it must never panic, must fail only as checkpoint.ErrCorrupt, and
// whatever it accepts must re-encode.
func FuzzDecodeUser(f *testing.F) {
	s := warmedEngine(f)
	for _, u := range s.users[:6] {
		enc := encodedUser(f, s, u)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := s.DecodeUser(checkpoint.NewDec(data))
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped decode failure: %v", err)
			}
			return
		}
		var e checkpoint.Enc
		if err := s.encodeUser(&e, u.u); err != nil {
			t.Fatalf("accepted user does not re-encode: %v", err)
		}
	})
}
