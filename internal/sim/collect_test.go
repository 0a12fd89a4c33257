package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/mobility"
)

// TestCollectTicksChunkBoundary: an interval of two stack-batched
// chunks and one tick more still puts every tick into every twin — a
// flush that dropped or repeated part of a chunk would move the clock
// — the users come out the same whatever the pool width, and the
// batches allocate nothing: an interval costs the allocations of a
// one-tick interval.
func TestCollectTicksChunkBoundary(t *testing.T) {
	const ticks, intervals = 2*tickChunk + 1, 3
	engine := func(ticks, workers int) *Simulation {
		cfg := fastConfig(7)
		cfg.TicksPerInterval = ticks
		cfg.Parallelism = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	var engines [2]*Simulation
	for w := range engines {
		s := engine(ticks, w+1)
		for k := 0; k < intervals; k++ {
			if err := s.CollectTicks(); err != nil {
				t.Fatal(err)
			}
			s.CloseInterval()
		}
		for _, u := range s.users {
			if got := u.twin.Ticks(); got != ticks*intervals {
				t.Fatalf("%d workers: user %d clock %d, want %d", w+1, u.id, got, ticks*intervals)
			}
		}
		engines[w] = s
	}
	for i, u := range engines[0].users {
		if !bytes.Equal(encodedUser(t, engines[0], u), encodedUser(t, engines[1], engines[1].users[i])) {
			t.Fatalf("user %d differs between 1 and 2 workers", u.id)
		}
	}
	perInterval := func(s *Simulation) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := s.CollectTicks(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, want := perInterval(engines[0]), perInterval(engine(1, 1)); got != want {
		t.Fatalf("%v allocations per %d-tick interval, %v per one-tick interval", got, ticks, want)
	}
}

// collectTicksOracle is the per-tick collection loop the three-phase
// chunks replaced, kept as their oracle: each tick moves the user,
// hands over, and evaluates the scalar link formula (math.Hypot and two
// math.Log10 over the public parameter API) on the fade DrawFade draws,
// then feeds the twin through the per-attribute calls, whose due check
// is the clock modulo each period. It returns the number of handovers
// that landed inside a chunk, not on its first tick.
func collectTicksOracle(t *testing.T, s *Simulation) (midChunk int) {
	t.Helper()
	dt := s.cfg.IntervalS / float64(s.cfg.TicksPerInterval)
	noise := s.params.NoisePowerDBm()
	for _, u := range s.users {
		for tick := 0; tick < s.cfg.TicksPerInterval; tick++ {
			pos, err := u.mob.Advance(dt)
			if err != nil {
				t.Fatal(err)
			}
			nearest, err := s.nearestBS(pos)
			if err != nil {
				t.Fatal(err)
			}
			if nearest.ID != u.link.BS().ID {
				if err := u.link.Handover(nearest); err != nil {
					t.Fatal(err)
				}
				if tick%tickChunk != 0 {
					midChunk++
				}
			}
			bs := u.link.BS()
			pl := s.params.PathLossDB(bs.Pos.Dist(pos))
			fadeDB := 10 * math.Log10(u.link.DrawFade())
			rxDBm := bs.TxPowerDBm - pl - u.link.ShadowDB() + fadeDB
			snr := rxDBm - noise
			u.meanSNR.Add(snr)
			u.meanX.Add(pos.X)
			u.meanY.Add(pos.Y)
			u.twin.Tick()
			if _, err := u.twin.CollectChannel(channel.CQI(snr)); err != nil {
				t.Fatal(err)
			}
			u.twin.CollectLocation(pos.X, pos.Y)
			if _, err := u.twin.CollectPreference(u.profile.Pref); err != nil {
				t.Fatal(err)
			}
		}
	}
	return midChunk
}

// predictUserSNROracle is predictUserSNR's path forecast as it was
// before the batch: one MeanSNRdB per extrapolated point, summed in
// point order.
func predictUserSNROracle(s *Simulation, u *user) float64 {
	damp := 0.6
	if pEst, ok := u.persist.Predict(); ok {
		damp = pEst
	}
	dx := damp * (u.posPrev.X - u.posPrev2.X)
	dy := damp * (u.posPrev.Y - u.posPrev2.Y)
	const samples = 6
	var sum float64
	for k := 0; k < samples; k++ {
		f := 0.5 + float64(k)/float64(samples-1)
		pt := s.campus.Clamp(mobility.Point{X: u.posPrev.X + f*dx, Y: u.posPrev.Y + f*dy})
		bs, berr := s.nearestBS(pt)
		if berr != nil {
			bs = u.link.BS()
		}
		sum += s.prop.MeanSNRdB(bs.TxPowerDBm, bs.Pos.Dist(pt))
	}
	model := sum / samples
	offset, okOff := u.snrOffset.Predict()
	if !okOff {
		return model - 2.5
	}
	modelPred := model + offset
	if ewma, ok := u.snrEWMA.Predict(); ok {
		return 0.8*modelPred + 0.2*ewma
	}
	return modelPred
}

// TestCollectTicksMatchesPerTickOracle: the batched tick path — fades
// drawn in stream order, SNRs evaluated a chunk at a time through the
// 4-wide Hypot and Log kernels, twins fed a chunk per call with phase
// counters — leaves every user exactly where the per-tick loop over
// the scalar formula does: the encoded user (stream position,
// mobility, link, twin rings and clock), the last SNR, the interval's
// mean SNR and position, the serving station and the twin's feature
// window. It runs with and without a down station, at interval
// lengths that are not a multiple of 4 and span one, two and three
// chunks, and requires handovers inside a chunk. After the intervals the 6-point path forecast must match its
// one-point-at-a-time oracle.
func TestCollectTicksMatchesPerTickOracle(t *testing.T) {
	midChunk := 0
	for _, ticks := range []int{tickChunk - 3, tickChunk + 13, 2*tickChunk + 7} {
		for _, down := range []bool{false, true} {
			cfg := fastConfig(9)
			cfg.NumUsers = 40
			cfg.TicksPerInterval = ticks
			engine := func() *Simulation {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				if down {
					s.downBS = []bool{false, true, false, false}
				}
				return s
			}
			got, want := engine(), engine()
			for k := 0; k < 4; k++ {
				if err := got.CollectTicks(); err != nil {
					t.Fatal(err)
				}
				midChunk += collectTicksOracle(t, want)
				for i, u := range got.users {
					o := want.users[i]
					name := func() string {
						return fmt.Sprintf("%d ticks, down %v, interval %d, user %d", ticks, down, k, u.id)
					}
					if !bytes.Equal(encodedUser(t, got, u), encodedUser(t, want, o)) {
						t.Fatalf("%s: encoded user differs", name())
					}
					if u.meanSNR != o.meanSNR || u.meanX != o.meanX || u.meanY != o.meanY || u.link.BS().ID != o.link.BS().ID {
						t.Fatalf("%s: mean SNR %v/%v, station %d/%d", name(),
							u.meanSNR.Mean(), o.meanSNR.Mean(), u.link.BS().ID, o.link.BS().ID)
					}
					if down && u.link.BS().ID == 1 {
						t.Fatalf("%s: served by the down station", name())
					}
					gw, err := u.twin.FeatureWindow(8, 2000)
					if err != nil {
						t.Fatal(err)
					}
					ow, err := o.twin.FeatureWindow(8, 2000)
					if err != nil {
						t.Fatal(err)
					}
					for j := range gw {
						if math.Float64bits(gw[j]) != math.Float64bits(ow[j]) {
							t.Fatalf("%s: feature window [%d] %v, want %v", name(), j, gw[j], ow[j])
						}
					}
				}
				got.CloseInterval()
				want.CloseInterval()
			}
			for i, u := range got.users {
				if u.havePos < 2 {
					t.Fatalf("user %d: %d interval positions, want 2", u.id, u.havePos)
				}
				if p, w := got.predictUserSNR(u), predictUserSNROracle(want, want.users[i]); math.Float64bits(p) != math.Float64bits(w) {
					t.Fatalf("user %d: path forecast %v, want %v", u.id, p, w)
				}
			}
		}
	}
	if midChunk == 0 {
		t.Fatal("no handover landed inside a chunk")
	}
}

// TestServingDiscImpliesNearest: wherever keepsServing holds, nearestBS
// returns that station — under every down mask of an 8-station grid,
// at random positions on and around the campus, on each disc's rim
// within ulps on either side, on the bisectors, at the stations and at
// NaN and infinite positions. The disc must also hold for a real share
// of the map, and never for a down station.
func TestServingDiscImpliesNearest(t *testing.T) {
	cfg := fastConfig(5)
	cfg.NumBS = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rng := rand.New(rand.NewSource(8))
	var pts []mobility.Point
	w, h := s.campus.Width, s.campus.Height
	for range 400 {
		pts = append(pts, mobility.Point{X: (rng.Float64()*1.2 - 0.1) * w, Y: (rng.Float64()*1.2 - 0.1) * h})
	}
	for i, a := range s.stations {
		pts = append(pts, a.Pos)
		r := math.Sqrt(s.innerSq[i])
		for range 20 {
			th := rng.Float64() * 2 * math.Pi
			for _, f := range []float64{1 - 1e-12, 1, 1 + 1e-12} {
				pts = append(pts, mobility.Point{X: a.Pos.X + f*r*math.Cos(th), Y: a.Pos.Y + f*r*math.Sin(th)})
			}
		}
		for _, b := range s.stations[i+1:] {
			pts = append(pts, mobility.Point{X: (a.Pos.X + b.Pos.X) / 2, Y: (a.Pos.Y + b.Pos.Y) / 2})
		}
	}
	pts = append(pts, mobility.Point{X: math.NaN(), Y: 0}, mobility.Point{X: math.Inf(1), Y: 0}, mobility.Point{X: 1e300, Y: -1e300})
	healthy := 0 // random positions inside a disc with no station down
	for mask := 0; mask < 1<<len(s.stations); mask++ {
		s.downBS = make([]bool, len(s.stations))
		for i := range s.downBS {
			s.downBS[i] = mask&(1<<i) != 0
		}
		for k, p := range pts {
			for _, bs := range s.stations {
				if !s.keepsServing(bs, p) {
					continue
				}
				if s.downBS[bs.ID] {
					t.Fatalf("mask %#x: down station %d kept", mask, bs.ID)
				}
				got, err := s.nearestBS(p)
				if err != nil || got != bs {
					t.Fatalf("mask %#x at %+v: disc of station %d, nearest %v (%v)", mask, p, bs.ID, got, err)
				}
				if mask == 0 && k < 400 {
					healthy++
				}
			}
		}
	}
	if healthy < 400/3 {
		t.Fatalf("serving discs held at %d of 400 random positions", healthy)
	}
}
