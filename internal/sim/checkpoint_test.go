package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
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
		if back.ID() != u.id || back.u.link.BS().ID != u.link.BS().ID {
			t.Fatalf("user %d decoded as %d on BS %d", u.id, back.ID(), back.u.link.BS().ID)
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

// TestTwinHistoryIsTheWindow: an engine twin keeps what its one
// reader, FeatureWindow(Grouping.WindowSteps), reads — capped at
// 4·TicksPerInterval, never under 2 — seen on the wire: a user whose
// every ring has overflowed encodes five rings of that many raw
// float64 words more than the same user cold.
func TestTwinHistoryIsTheWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ticks     int
		window    int
		wantSlots int
	}{
		{"defaults", 0, 0, 16},
		{"ticks 3 window 16", 3, 16, 12},
		{"window 1", 0, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 1, NumUsers: 4, NumBS: 1, NumIntervals: 1, TicksPerInterval: tc.ticks}
			cfg.Grouping.WindowSteps = tc.window
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			u := s.users[0]
			cold := encodedUser(t, s, u)
			// 240 ticks and views overfill even the old 120-slot rings
			// (location is collected every other tick).
			ticks := make([]udt.TickSample, 240)
			for i := range ticks {
				ticks[i] = udt.TickSample{CQI: 1 + i%15, X: float64(i), Y: 1}
			}
			if err := u.twin.CollectTicks(ticks, u.profile.Pref); err != nil {
				t.Fatal(err)
			}
			for range ticks {
				if _, err := u.twin.CollectView(video.News, 1, 0.5, false); err != nil {
					t.Fatal(err)
				}
			}
			grown := len(encodedUser(t, s, u)) - len(cold)
			if slot := udt.NumFeatureChannels * 8; grown != tc.wantSlots*slot {
				t.Fatalf("saturated user encodes %d bytes more than cold, want %d rings × %d slots × 8",
					grown, udt.NumFeatureChannels, tc.wantSlots)
			}
		})
	}
}

// FuzzDecodeUser hammers the per-user decoder — the one that reads
// bytes another process wrote — with mutations of real encodings:
// it must never panic, must fail only as checkpoint.ErrCorrupt, and
// whatever it accepts must re-encode and move one tick. Every input is
// decoded a second time into a spare that held a stepped user of
// another mobility class, as a worker decodes an import into a twin it
// exported: the two decodes must agree on failure, and accepted users
// must re-encode to the same bytes, step one tick alike and re-encode
// alike again.
func FuzzDecodeUser(f *testing.F) {
	s := warmedEngine(f)
	var byClass [4][]byte // a stepped user of each mobility class (id mod 4)
	for _, u := range s.users[:6] {
		enc := encodedUser(f, s, u)
		byClass[u.id%4] = enc
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, enc := range oldCapacityUser(f, s) {
		f.Add(enc)
	}
	f.Add(offRouteUser(f, s))
	f.Add(badPreferenceUser(f, s, math.NaN()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := s.DecodeUser(checkpoint.NewDec(data))
		class := 0
		if err == nil {
			class = u.ID() % 4
		}
		spare, serr := s.DecodeUser(checkpoint.NewDec(byClass[(class+1)%4]))
		if serr != nil {
			t.Fatal(serr)
		}
		v, verr := s.DecodeUserInto(checkpoint.NewDec(data), spare)
		if (err == nil) != (verr == nil) {
			t.Fatalf("decode without a spare: %v; into a spare: %v", err, verr)
		}
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) || !errors.Is(verr, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped decode failure: %v / %v", err, verr)
			}
			return
		}
		if v != spare {
			t.Fatalf("user %d decoded beside its spare, not into it", v.ID())
		}
		if err := u.u.profile.Pref.Validate(); err != nil {
			t.Fatalf("accepted user's preference: %v", err)
		}
		if err := u.u.twin.Preference().Validate(); err != nil {
			t.Fatalf("accepted twin's preference: %v", err)
		}
		var e, ev checkpoint.Enc
		if err := s.encodeUser(&e, u.u); err != nil {
			t.Fatalf("accepted user does not re-encode: %v", err)
		}
		if w, err := s.DecodeUser(checkpoint.NewDec(data)); err != nil {
			t.Fatalf("accepted once, refused again: %v", err)
		} else if _, err := w.u.mob.Advance(s.cfg.IntervalS / float64(s.cfg.TicksPerInterval)); err != nil {
			t.Fatalf("accepted user does not move: %v", err)
		}
		if err := s.encodeUser(&ev, v.u); err != nil || !bytes.Equal(e.Bytes(), ev.Bytes()) {
			t.Fatalf("user decoded into a spare encodes unlike a fresh decode (%v)", err)
		}
		err, verr = s.collectUserTicks(u.u, 1), s.collectUserTicks(v.u, 1)
		if fmt.Sprint(err) != fmt.Sprint(verr) {
			t.Fatalf("one tick: %v; into a spare: %v", err, verr)
		}
		if err != nil {
			return
		}
		e.Reset()
		ev.Reset()
		if err := s.encodeUser(&e, u.u); err != nil {
			t.Fatalf("user does not re-encode after a tick: %v", err)
		}
		if err := s.encodeUser(&ev, v.u); err != nil || !bytes.Equal(e.Bytes(), ev.Bytes()) {
			t.Fatalf("user decoded into a spare steps unlike a fresh decode (%v)", err)
		}
	})
}

// badPreferenceUser returns the encoding of user 1 with the first word
// of its profile preference rewritten to w.
func badPreferenceUser(tb testing.TB, s *Simulation, w float64) []byte {
	tb.Helper()
	enc := encodedUser(tb, s, s.users[1])
	// id, generation and stream word; the preference's length.
	binary.LittleEndian.PutUint64(enc[3*8+4:], math.Float64bits(w))
	return enc
}

// TestDecodeUserRejectsBadPreference: a user whose profile preference
// is not a distribution — a negative, NaN or infinite word — is
// corrupt, with a spare or without. DecodeUser once accepted it, and
// the cell's next interval failed on the preference instead.
func TestDecodeUserRejectsBadPreference(t *testing.T) {
	s := warmedEngine(t)
	for _, w := range []float64{-5, math.NaN(), math.Inf(1)} {
		enc := badPreferenceUser(t, s, w)
		if _, err := s.DecodeUser(checkpoint.NewDec(enc)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("preference word %v: want checkpoint.ErrCorrupt, got %v", w, err)
		}
		spare, err := s.newUser(5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DecodeUserInto(checkpoint.NewDec(enc), User{u: spare}); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("preference word %v into a spare: want checkpoint.ErrCorrupt, got %v", w, err)
		}
	}
}

// offRouteUser returns the encoding of a landmark walker whose next
// stop is 1<<20, far past its route.
func offRouteUser(tb testing.TB, s *Simulation) []byte {
	tb.Helper()
	u := s.users[1]
	if _, ok := u.mob.(*mobility.LandmarkWalk); !ok {
		tb.Fatalf("user 1 walks by %T, not between landmarks", u.mob)
	}
	enc := encodedUser(tb, s, u)
	// id, generation and stream word; the preference; the mobility
	// kind tag and position.
	next := 3*8 + 4 + 8*len(u.profile.Pref) + 1 + 2*8
	binary.LittleEndian.PutUint64(enc[next:], 1<<20)
	return enc
}

// TestDecodeUserRejectsNextOffRoute: a landmark walker whose next stop
// lies outside its route is corrupt. DecodeUser, which also reads twins
// handed over from another process, once accepted it, and the walker's
// next Advance indexed past the route.
func TestDecodeUserRejectsNextOffRoute(t *testing.T) {
	s := warmedEngine(t)
	u, err := s.DecodeUser(checkpoint.NewDec(offRouteUser(t, s)))
	if err == nil {
		u.u.mob.Advance(1)
		t.Fatal("a walker past its route decoded")
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("want checkpoint.ErrCorrupt, got %v", err)
	}
}

// oldCapacityUser returns a user whose twin rings hold 120 samples, as
// builds before the rings were sized to the grouping window wrote it
// at the default 30 ticks per interval, and the same bytes with the
// twin's capacity word rewritten to the engine's, so the decoder reaches
// a ring longer than its own. Both are refused as checkpoint.ErrCorrupt:
// the first for its twin identity, the second for its ring length.
func oldCapacityUser(tb testing.TB, s *Simulation) [2][]byte {
	tb.Helper()
	u := *s.users[0]
	identity := func(history int) []byte {
		tw, err := udt.NewTwin(u.id, udt.Config{HistoryLen: history})
		if err != nil {
			tb.Fatal(err)
		}
		var e checkpoint.Enc
		tw.EncodeState(&e)
		return e.Bytes()[:6*8] // user id and Config
	}
	old, err := udt.NewTwin(u.id, udt.Config{HistoryLen: 120})
	if err != nil {
		tb.Fatal(err)
	}
	ticks := make([]udt.TickSample, 240)
	for i := range ticks {
		ticks[i] = udt.TickSample{CQI: 1 + i%15, X: float64(i), Y: 2}
	}
	if err := old.CollectTicks(ticks, u.profile.Pref); err != nil {
		tb.Fatal(err)
	}
	u.twin = *old
	written := encodedUser(tb, s, &u)
	patched := bytes.Replace(written, identity(120), identity(s.cfg.twinHistory()), 1)
	for i, enc := range [][]byte{written, patched} {
		_, err := s.DecodeUser(checkpoint.NewDec(enc))
		if !errors.Is(err, checkpoint.ErrCorrupt) || i == 1 && !strings.Contains(err.Error(), "120 floats into room for") {
			tb.Fatalf("120-sample user (case %d): want checkpoint.ErrCorrupt, got %v", i, err)
		}
	}
	return [2][]byte{written, patched}
}

// TestBuilderSkipBound: a whole run's builder draws stay within
// maxBuilderSkip, and a checkpoint may put the builder's source as far
// past its replayed position as that bound and no further. The bound
// grows with CompressorEpochs, so a configuration whose fit could draw
// more than 2^22 resumes a skip that large.
func TestBuilderSkipBound(t *testing.T) {
	for _, mut := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.OracleK = true },
		func(c *Config) { c.FixedK = 20 },
	} {
		cfg := fastConfig(5)
		mut(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed := s.cnt.Draws()
		runAll(t, s)
		if skip, bound := s.cnt.Draws()-replayed, maxBuilderSkip(s.cfg); skip > bound {
			t.Errorf("oracle %v, fixed k %d: run drew %d builder draws, bound %d", cfg.OracleK, cfg.FixedK, skip, bound)
		}
		s.Close()
	}

	cfg := fastConfig(5)
	cfg.CompressorEpochs = 1 << 18
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	replayed, bound := s.cnt.Draws(), maxBuilderSkip(s.cfg)
	if bound <= 1<<22 {
		t.Fatalf("bound %d for %d users × %d epochs, want above 2^22", bound, cfg.NumUsers, cfg.CompressorEpochs)
	}
	engine := func(draws uint64) *checkpoint.Dec {
		var e checkpoint.Enc
		s.encodeEngine(&e)
		b := bytes.Clone(e.Bytes())
		binary.LittleEndian.PutUint64(b, draws) // the count leads the section
		return checkpoint.NewDec(b)
	}
	if err := s.decodeEngine(engine(replayed + bound + 1)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("skip of bound+1: %v, want ErrCorrupt", err)
	}
	if err := s.decodeEngine(engine(replayed + bound)); err != nil {
		t.Fatalf("skip of bound %d: %v", bound, err)
	}
	if got := s.cnt.Draws(); got != replayed+bound {
		t.Fatalf("builder at draw %d after the skip, want %d", got, replayed+bound)
	}
}
