package channel

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/mobility"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{"carrier", func(p *Params) { p.CarrierGHz = 0 }},
		{"shadow", func(p *Params) { p.ShadowSigmaDB = -1 }},
		{"rb", func(p *Params) { p.RBBandwidthHz = 0 }},
		{"mindist", func(p *Params) { p.MinDistM = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mut(&p)
			if err := p.Validate(); !errors.Is(err, ErrParam) {
				t.Fatalf("want ErrParam, got %v", err)
			}
		})
	}
}

func TestPathLossMonotone(t *testing.T) {
	p := DefaultParams()
	prev := p.PathLossDB(10)
	for d := 20.0; d <= 2000; d += 10 {
		pl := p.PathLossDB(d)
		if pl <= prev {
			t.Fatalf("path loss not increasing at %v m: %v <= %v", d, pl, prev)
		}
		prev = pl
	}
	// Clamped below MinDist.
	if p.PathLossDB(1) != p.PathLossDB(5) {
		t.Fatal("distances below MinDist must clamp")
	}
}

func TestPathLossReference(t *testing.T) {
	// At 1 km and 2 GHz the UMa formula gives 128.1 dB.
	p := DefaultParams()
	p.CarrierGHz = 2
	if got := p.PathLossDB(1000); math.Abs(got-128.1) > 1e-9 {
		t.Fatalf("PL(1km, 2GHz) = %v, want 128.1", got)
	}
}

func TestNoisePower(t *testing.T) {
	p := DefaultParams()
	// -174 + 10log10(180e3) + 9 ≈ -112.45 dBm
	want := -174 + 10*math.Log10(180e3) + 9
	if got := p.NoisePowerDBm(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("noise %v, want %v", got, want)
	}
}

// TestPropagationMatchesMeanSNRdB: the precomputed model is bit for
// bit Params.MeanSNRdB and the expression it was written as — transmit
// power minus PathLossDB minus NoisePowerDBm — below, at and above the
// clamp distance, for two transmit powers and a non-default carrier
// and noise figure.
func TestPropagationMatchesMeanSNRdB(t *testing.T) {
	odd := DefaultParams()
	odd.CarrierGHz, odd.NoiseFigureDB, odd.MinDistM = 3.7, 5.5, 17
	rng := rand.New(rand.NewSource(5))
	for _, p := range []Params{DefaultParams(), odd} {
		m := p.Propagation()
		dists := []float64{0, 1, p.MinDistM / 2, math.Nextafter(p.MinDistM, 0), p.MinDistM, math.Nextafter(p.MinDistM, 1e9), 100, 1000, 5000}
		for i := 0; i < 200; i++ {
			dists = append(dists, rng.Float64()*5000)
		}
		for _, tx := range []float64{16, 43.2} {
			for _, d := range dists {
				got := m.MeanSNRdB(tx, d)
				if ref := tx - p.PathLossDB(d) - p.NoisePowerDBm(); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("carrier %v tx %v d %v: %v, reference expression %v", p.CarrierGHz, tx, d, got, ref)
				}
				if want := p.MeanSNRdB(tx, d); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("carrier %v tx %v d %v: %v, Params.MeanSNRdB %v", p.CarrierGHz, tx, d, got, want)
				}
			}
		}
	}
}

func TestSpectralEfficiency(t *testing.T) {
	if se := SpectralEfficiency(0); math.Abs(se-1) > 1e-9 {
		t.Fatalf("SE(0dB) = %v, want 1", se)
	}
	if se := SpectralEfficiency(100); se != 7.8 {
		t.Fatalf("SE must cap at 7.8, got %v", se)
	}
	if se := SpectralEfficiency(-30); se <= 0 || se > 0.01 {
		t.Fatalf("SE(-30dB) = %v", se)
	}
	// Monotone non-decreasing property.
	f := func(a, b float64) bool {
		a = math.Mod(a, 60)
		b = math.Mod(b, 60)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return SpectralEfficiency(lo) <= SpectralEfficiency(hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCQIRange(t *testing.T) {
	if CQI(-100) != 1 {
		t.Fatalf("CQI floor: %d", CQI(-100))
	}
	if CQI(100) != 15 {
		t.Fatalf("CQI ceil: %d", CQI(100))
	}
	prev := 0
	for snr := -10.0; snr <= 25; snr += 0.25 {
		q := CQI(snr)
		if q < 1 || q > 15 {
			t.Fatalf("CQI(%v) = %d out of range", snr, q)
		}
		if q < prev {
			t.Fatalf("CQI not monotone at %v dB", snr)
		}
		prev = q
	}
}

func TestNewLinkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bs := &BaseStation{Pos: mobility.Point{X: 0, Y: 0}, TxPowerDBm: 30}
	bad := DefaultParams()
	bad.CarrierGHz = 0
	if _, err := NewLink(bad, bs, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewLink(DefaultParams(), nil, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("nil bs: want ErrParam, got %v", err)
	}
	l, err := NewLink(DefaultParams(), bs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l.BS() != bs {
		t.Fatal("BS accessor")
	}
}

// TestLinkInitInPlace: Init over a used link builds the link NewLink
// builds from the same stream, allocating nothing, and a refused Init
// leaves the link as it was.
func TestLinkInitInPlace(t *testing.T) {
	bs := &BaseStation{Pos: mobility.Point{X: 0, Y: 0}, TxPowerDBm: 30}
	p := DefaultParams()
	want, err := NewLink(p, bs, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(p, &BaseStation{ID: 3}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	l.DrawFade()
	if err := l.Init(p, bs, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	var a, b checkpoint.Enc
	want.EncodeState(&a)
	l.EncodeState(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) || l.BS() != bs || l.DrawFade() != want.DrawFade() {
		t.Fatal("Init over a used link builds unlike NewLink")
	}
	before := *l
	if err := l.Init(p, nil, l.rng); !errors.Is(err, ErrParam) || *l != before {
		t.Fatalf("nil bs: want ErrParam and the link untouched, got %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	if n := testing.AllocsPerRun(10, func() {
		if err := l.Init(p, bs, rng); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Init allocates %.0f times", n)
	}
}

func TestLinkSNRDecreasesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bs := &BaseStation{Pos: mobility.Point{X: 0, Y: 0}, TxPowerDBm: 30}
	params := DefaultParams()
	params.ShadowSigmaDB = 0 // isolate distance effect
	l, err := NewLink(params, bs, rng)
	if err != nil {
		t.Fatal(err)
	}
	meanSNR := func(d float64) float64 {
		const n = 3000
		rs := make([]Reception, n)
		for i := range rs {
			rs[i] = Reception{BS: bs, Pos: mobility.Point{X: d, Y: 0}, Fade: l.DrawFade()}
		}
		snr := make([]float64, n)
		l.SNRsInto(snr, rs)
		var sum float64
		for _, v := range snr {
			sum += v
		}
		return sum / n
	}
	near, far := meanSNR(50), meanSNR(1500)
	if near <= far {
		t.Fatalf("SNR near %v <= far %v", near, far)
	}
	if near-far < 30 {
		t.Fatalf("distance effect too small: %v dB", near-far)
	}
}

func TestRateBps(t *testing.T) {
	p := DefaultParams()
	// 0 dB SNR → SE 1 → 180 kbps per RB.
	if got := p.RateBps(0); math.Abs(got-180e3) > 1 {
		t.Fatalf("rate %v, want 180e3", got)
	}
}

func TestNearestBS(t *testing.T) {
	if _, err := NearestBS(nil, mobility.Point{}); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	a := &BaseStation{ID: 0, Pos: mobility.Point{X: 0, Y: 0}}
	b := &BaseStation{ID: 1, Pos: mobility.Point{X: 100, Y: 0}}
	got, err := NearestBS([]*BaseStation{a, b}, mobility.Point{X: 80, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 1 {
		t.Fatalf("nearest = %d, want 1", got.ID)
	}
}

func TestGridDeploy(t *testing.T) {
	m := mobility.CampusMap()
	if _, err := GridDeploy(m, 0, 30); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := GridDeploy(nil, 4, 30); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	stations, err := GridDeploy(m, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != 4 {
		t.Fatalf("%d stations", len(stations))
	}
	seen := map[int]bool{}
	for _, bs := range stations {
		if seen[bs.ID] {
			t.Fatalf("duplicate id %d", bs.ID)
		}
		seen[bs.ID] = true
		if !m.Contains(bs.Pos) {
			t.Fatalf("bs %d outside map", bs.ID)
		}
		if bs.TxPowerDBm != 30 {
			t.Fatalf("bs power %v", bs.TxPowerDBm)
		}
	}
	// Non-square count still yields exactly n.
	stations, err = GridDeploy(m, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != 5 {
		t.Fatalf("%d stations, want 5", len(stations))
	}
}

// TestLinkInitDrawsThreeNormals: Init draws the shadowing, then two
// normals it discards, and nothing else, so every fade after it sits
// where the stream has always put it.
func TestLinkInitDrawsThreeNormals(t *testing.T) {
	bs := &BaseStation{Pos: mobility.Point{X: 0, Y: 0}, TxPowerDBm: 30}
	p := DefaultParams()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, err := NewLink(p, bs, rng)
		if err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(seed))
		if shadow := ref.NormFloat64() * p.ShadowSigmaDB; l.ShadowDB() != shadow {
			t.Fatalf("seed %d: shadowing %v, want the first normal's %v", seed, l.ShadowDB(), shadow)
		}
		ref.NormFloat64()
		ref.NormFloat64()
		if got, want := l.DrawFade(), max(ref.ExpFloat64(), 1e-9); got != want || l.rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: first fade %v, want %v, or the streams diverged after three normals", seed, got, want)
		}
	}
}

// linkState returns the link's mutable state in the checkpoint
// encoding.
func linkState(l *Link) []byte {
	var e checkpoint.Enc
	l.EncodeState(&e)
	return e.Bytes()
}

// TestLinkEncodeDecodeState: a link's state decodes into a link built on
// another station and draw, rebinding the serving station by id, and
// re-encodes to the same bytes; a station outside the deployment is
// corrupt.
func TestLinkEncodeDecodeState(t *testing.T) {
	stations, err := GridDeploy(mobility.CampusMap(), 4, 46)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	src, err := NewLink(p, stations[3], rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	src.DrawFade()
	dst, err := NewLink(p, stations[0], rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	enc := linkState(src)
	d := checkpoint.NewDec(enc)
	if err := dst.DecodeState(d, stations); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if dst.BS() != stations[3] || dst.ShadowDB() != src.ShadowDB() || !bytes.Equal(linkState(dst), enc) {
		t.Fatal("decoded link differs from the encoded one")
	}
	if err := dst.DecodeState(checkpoint.NewDec(enc), stations[:3]); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("station 3 of 3: want checkpoint.ErrCorrupt, got %v", err)
	}
	if err := dst.DecodeState(checkpoint.NewDec(enc[:len(enc)-1]), stations); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated state: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// referenceSample is the per-sample link evaluation the batched path
// replaced — one fading draw, then math.Hypot and two math.Log10 —
// kept verbatim (reading the serving station and position per sample)
// as the oracle of DrawFade and SNRsInto.
func referenceSample(l *Link, bs *BaseStation, userPos mobility.Point) float64 {
	d := bs.Pos.Dist(userPos)
	pl := l.prop.params.pathLossDB(l.prop.ref, d)
	// |h|² of a unit complex Gaussian is Exp(1).
	h2 := l.rng.ExpFloat64()
	if h2 < 1e-9 {
		h2 = 1e-9
	}
	fadeDB := 10 * math.Log10(h2)
	rxDBm := bs.TxPowerDBm - pl - l.shadowDB + fadeDB
	return rxDBm - l.prop.noise
}

// TestSNRsIntoMatchesPerSampleFormula: drawing a run's fades with
// DrawFade and evaluating them with SNRsInto — in one call or split
// into chunks of any size, across the batchLen pass boundary — gives
// every sample the per-sample formula's SNR bit for bit, and leaves the
// link state and the random stream where the per-sample loop leaves
// them. The run switches serving station mid-chunk and visits the
// clamp radius, a station's exact position (a Hypot special case) and
// positions far away.
func TestSNRsIntoMatchesPerSampleFormula(t *testing.T) {
	stations := []*BaseStation{
		{ID: 0, Pos: mobility.Point{X: 100, Y: 100}, TxPowerDBm: 30},
		{ID: 1, Pos: mobility.Point{X: 900, Y: 300}, TxPowerDBm: 27},
	}
	const n = 3*batchLen + 5
	rng := rand.New(rand.NewSource(5))
	rs := make([]Reception, n)
	for i := range rs {
		bs := stations[(i/7)%2]
		pos := mobility.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 600}
		switch i % 11 {
		case 3:
			pos = bs.Pos
		case 5:
			pos = mobility.Point{X: bs.Pos.X + 3, Y: bs.Pos.Y - 4}
		case 8:
			pos = mobility.Point{X: bs.Pos.X + 6, Y: bs.Pos.Y + 8} // exactly MinDistM
		}
		rs[i] = Reception{BS: bs, Pos: pos}
	}
	link := func() *Link {
		l, err := NewLink(DefaultParams(), stations[0], rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ref := link()
	want := make([]float64, n)
	for i, r := range rs {
		want[i] = referenceSample(ref, r.BS, r.Pos)
	}
	for _, chunk := range []int{1, 3, 4, batchLen - 1, batchLen, batchLen + 1, n} {
		l := link()
		got := make([]float64, n)
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			batch := append([]Reception(nil), rs[lo:hi]...)
			for j := range batch {
				batch[j].Fade = l.DrawFade()
			}
			l.SNRsInto(got[lo:hi], batch)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("chunk %d sample %d: SNR %v, want %v", chunk, i, got[i], want[i])
			}
		}
		if !bytes.Equal(linkState(l), linkState(ref)) || l.rng.Int63() != ref.rng.Int63() {
			t.Fatalf("chunk %d: link state or stream diverged", chunk)
		}
		ref = link()
		for _, r := range rs {
			referenceSample(ref, r.BS, r.Pos)
		}
	}
	// Sample is DrawFade and a one-reception SNRsInto.
	l, ref := link(), link()
	for _, r := range rs[:2*batchLen] {
		if err := l.Handover(r.BS); err != nil {
			t.Fatal(err)
		}
		if got, want := l.Sample(r.Pos), referenceSample(ref, r.BS, r.Pos); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Sample %v, want %v", got, want)
		}
	}
}

// TestMeanSNRsIntoMatchesMeanSNRdB: the batched deterministic model is
// MeanSNRdB of each reception, bit for bit, at every length up to past
// two passes, including the clamp radius and a station's own position.
func TestMeanSNRsIntoMatchesMeanSNRdB(t *testing.T) {
	m := DefaultParams().Propagation()
	bs := &BaseStation{Pos: mobility.Point{X: 300, Y: 200}, TxPowerDBm: 30}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 2*batchLen+3; n++ {
		rs := make([]Reception, n)
		for i := range rs {
			pos := mobility.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
			if i%5 == 2 {
				pos = mobility.Point{X: bs.Pos.X + rng.Float64()*10, Y: bs.Pos.Y}
			}
			if i%7 == 4 {
				pos = bs.Pos
			}
			rs[i] = Reception{BS: bs, Pos: pos, Fade: 3}
		}
		got := make([]float64, n)
		m.MeanSNRsInto(got, rs)
		for i, r := range rs {
			want := m.MeanSNRdB(bs.TxPowerDBm, bs.Pos.Dist(r.Pos))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d [%d]: %v, want %v", n, i, got[i], want)
			}
		}
	}
}

// TestSNRsIntoAllocFree: a batch evaluation allocates nothing.
func TestSNRsIntoAllocFree(t *testing.T) {
	bs := &BaseStation{Pos: mobility.Point{}, TxPowerDBm: 30}
	l, err := NewLink(DefaultParams(), bs, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]Reception, 40)
	for i := range rs {
		rs[i] = Reception{BS: bs, Pos: mobility.Point{X: float64(10 * i), Y: 5}, Fade: 1}
	}
	dst := make([]float64, len(rs))
	if a := testing.AllocsPerRun(10, func() { l.SNRsInto(dst, rs) }); a != 0 {
		t.Fatalf("%v allocations per batch", a)
	}
}

// referenceNearest is the plain search the squared-distance screen
// replaced — one Hypot per live station, first strict minimum in slice
// order — kept verbatim as the screen's oracle.
func referenceNearest(stations []*BaseStation, down []bool, pos mobility.Point) (*BaseStation, error) {
	if len(down) == 0 {
		if len(stations) == 0 {
			return nil, ErrParam
		}
		best := stations[0]
		bestD := best.Pos.Dist(pos)
		for _, bs := range stations[1:] {
			if d := bs.Pos.Dist(pos); d < bestD {
				best, bestD = bs, d
			}
		}
		return best, nil
	}
	var best *BaseStation
	var bestD float64
	for _, bs := range stations {
		if bs.ID >= 0 && bs.ID < len(down) && down[bs.ID] {
			continue
		}
		if d := bs.Pos.Dist(pos); best == nil || d < bestD {
			best, bestD = bs, d
		}
	}
	if best == nil {
		return nil, ErrParam
	}
	return best, nil
}

// TestNearestScreenMatchesHypotScan: the screened search returns the
// very station the plain Hypot scan returns — same pointer, same
// tie-break — on and far off the map, on a station, on and within a few
// ulp of the bisector of two stations, over duplicate stations, at
// magnitudes where the squares overflow or underflow, at a NaN position
// and with a NaN station, under every down mask of an 8-station
// deployment.
func TestNearestScreenMatchesHypotScan(t *testing.T) {
	grid, err := GridDeploy(mobility.CampusMap(), 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(f float64) []*BaseStation {
		out := make([]*BaseStation, len(grid))
		for i, bs := range grid {
			out[i] = &BaseStation{ID: bs.ID, Pos: mobility.Point{X: bs.Pos.X * f, Y: bs.Pos.Y * f}}
		}
		return out
	}
	// Duplicates: stations 2 and 5 share a position, as do 3 and 4;
	// the first in slice order must win.
	dup := scaled(1)
	dup[5].Pos = dup[2].Pos
	dup[4].Pos = dup[3].Pos
	// A station at a NaN position: the plain scan keeps it when it is
	// the first live station, since no distance compares below NaN.
	nanFirst := scaled(1)
	nanFirst[0].Pos.X = math.NaN()
	// Squares that overflow for some stations and not others, and
	// squares deep enough in the subnormals to lose their order.
	big, tiny := scaled(1e151), scaled(1e-160)
	// A pair whose bisector (x = 100) has exactly equal squares.
	pair := []*BaseStation{
		{ID: 0, Pos: mobility.Point{X: 0, Y: 0}},
		{ID: 1, Pos: mobility.Point{X: 200, Y: 0}},
	}

	rng := rand.New(rand.NewSource(23))
	type probe struct {
		name     string
		stations []*BaseStation
		pos      mobility.Point
	}
	var probes []probe
	add := func(name string, st []*BaseStation, p mobility.Point) {
		probes = append(probes, probe{name, st, p})
	}
	for i := 0; i < 500; i++ {
		add("on map", grid, mobility.Point{X: 2000 * rng.Float64(), Y: 2000 * rng.Float64()})
		add("off map", grid, mobility.Point{X: 1e6 * rng.NormFloat64(), Y: 1e6 * rng.NormFloat64()})
		add("duplicates", dup, mobility.Point{X: 2000 * rng.Float64(), Y: 2000 * rng.Float64()})
		add("bisector", pair, mobility.Point{X: 100, Y: 1000 * rng.NormFloat64()})
		// Within a few ulp of the bisector of two grid columns, where
		// rounding decides the square's order and Hypot's apart.
		mid := (grid[0].Pos.X + grid[3].Pos.X) / 2
		for k := -2.0; k <= 2; k++ {
			add("near grid bisector", grid, mobility.Point{X: mid + k*1e-13, Y: grid[0].Pos.Y + 5*rng.NormFloat64()})
		}
		add("near 1e150", big, mobility.Point{X: 2e154 * rng.Float64(), Y: 2e154 * rng.Float64()})
		add("near 1e-160", tiny, mobility.Point{X: 2e-157 * rng.Float64(), Y: 2e-157 * rng.Float64()})
		add("nan station", nanFirst, mobility.Point{X: 2000 * rng.Float64(), Y: 2000 * rng.Float64()})
	}
	for _, bs := range grid {
		add("on a station", grid, bs.Pos)
		add("on a duplicate", dup, bs.Pos)
	}
	// Near-ties of stations 5 and 7 whose subnormal squares order the
	// two the other way round from Hypot (found by search).
	for _, p := range []mobility.Point{
		{X: 1.767503391040547e-160, Y: 1.7672967338996142e-160},
		{X: 1.983781352026803e-160, Y: 1.9837323563639737e-160},
		{X: 1.8181744632875092e-160, Y: 1.8182848684604218e-160},
	} {
		add("subnormal squares", scaled(1e-163), p)
	}
	add("nan", grid, mobility.Point{X: math.NaN(), Y: 500})
	add("inf", grid, mobility.Point{X: math.Inf(1), Y: 500})

	const numBS = 8
	for _, p := range probes {
		for mask := 0; mask < 1<<numBS; mask++ {
			var down []bool
			if mask > 0 {
				down = make([]bool, numBS)
				for b := range down {
					down[b] = mask&(1<<b) != 0
				}
			}
			want, werr := referenceNearest(p.stations, down, p.pos)
			got, gerr := NearestAliveBS(p.stations, down, p.pos)
			if (werr != nil) != (gerr != nil) || got != want {
				t.Fatalf("%s at %+v, mask %08b: got %v (%v), want %v (%v)", p.name, p.pos, mask, got, gerr, want, werr)
			}
			if werr != nil && !errors.Is(gerr, ErrParam) {
				t.Fatalf("%s, mask %08b: want ErrParam, got %v", p.name, mask, gerr)
			}
			if mask == 0 {
				if got, err := NearestBS(p.stations, p.pos); err != nil || got != want {
					t.Fatalf("%s at %+v: NearestBS %v (%v), want %v", p.name, p.pos, got, err, want)
				}
			}
		}
	}
	// Every station down over the full grid still fails typed.
	all := make([]bool, numBS)
	for i := range all {
		all[i] = true
	}
	if _, err := NearestAliveBS(grid, all, mobility.Point{X: 1, Y: 1}); !errors.Is(err, ErrParam) {
		t.Fatalf("all down: want ErrParam, got %v", err)
	}
}
