// Package channel models the wireless link between a base station and
// a user: 3GPP-style urban-macro path loss, log-normal shadowing,
// Rayleigh fast fading, SNR and Shannon spectral efficiency, plus the
// CQI quantization UDTs store as "channel condition". The paper is
// simulation-only; this is the standard substitute for real RAN
// measurements (DESIGN.md §2).
//
// A link's samples are drawn and evaluated apart: DrawFade makes a
// sample's only random draw, and SNRsInto evaluates a chunk of drawn
// samples at once through vecmath's batched Hypot and Log, which equal
// math.Hypot and math.Log bit for bit, so the chunked SNRs are those of
// the per-sample formula (TestSNRsIntoMatchesPerSampleFormula keeps
// that formula as the oracle).
package channel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dtmsvs/internal/mobility"
	"dtmsvs/internal/vecmath"
)

// ErrParam indicates an invalid channel parameter.
var ErrParam = errors.New("channel: invalid parameter")

// BaseStation is a transmitter at a fixed position.
type BaseStation struct {
	ID int
	// Pos is the BS location on the campus map.
	Pos mobility.Point
	// TxPowerDBm is the transmit power per resource block.
	TxPowerDBm float64
}

// Params holds the propagation model constants.
type Params struct {
	// CarrierGHz is the carrier frequency (default 2.6 GHz).
	CarrierGHz float64
	// ShadowSigmaDB is the log-normal shadowing std dev (default 8 dB).
	ShadowSigmaDB float64
	// NoiseFigureDB at the receiver (default 9 dB).
	NoiseFigureDB float64
	// RBBandwidthHz is the bandwidth of one resource block
	// (default 180 kHz, LTE-style).
	RBBandwidthHz float64
	// MinDistM clamps the path-loss distance (default 10 m).
	MinDistM float64
}

// DefaultParams returns the parameter set used by the experiments.
func DefaultParams() Params {
	return Params{
		CarrierGHz:    2.6,
		ShadowSigmaDB: 8,
		NoiseFigureDB: 9,
		RBBandwidthHz: 180e3,
		MinDistM:      10,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.CarrierGHz <= 0:
		return fmt.Errorf("carrier %v GHz: %w", p.CarrierGHz, ErrParam)
	case p.ShadowSigmaDB < 0:
		return fmt.Errorf("shadow sigma %v dB: %w", p.ShadowSigmaDB, ErrParam)
	case p.RBBandwidthHz <= 0:
		return fmt.Errorf("rb bandwidth %v Hz: %w", p.RBBandwidthHz, ErrParam)
	case p.MinDistM <= 0:
		return fmt.Errorf("min dist %v m: %w", p.MinDistM, ErrParam)
	}
	return nil
}

// PathLossDB returns the 3GPP UMa-style path loss in dB at distance d
// meters: PL = 128.1 + 37.6·log10(d/1000) adjusted for carrier
// frequency. Distances below MinDistM are clamped.
func (p Params) PathLossDB(d float64) float64 {
	return p.pathLossDB(p.refDB(), d)
}

// refDB is the path-loss reference: 128.1 dB at 2 GHz, shifted by
// 21·log10(f/2) to account for carrier frequency (approximate
// frequency scaling).
func (p Params) refDB() float64 { return 128.1 + 21*math.Log10(p.CarrierGHz/2) }

// pathLossDB is PathLossDB over a reference already computed by refDB,
// so a Propagation pays the carrier logarithm once, not per call.
func (p Params) pathLossDB(ref, d float64) float64 {
	if d < p.MinDistM {
		d = p.MinDistM
	}
	return ref + 37.6*math.Log10(d/1000)
}

// NoisePowerDBm returns thermal noise power over one RB including the
// noise figure: -174 dBm/Hz + 10·log10(B) + NF.
func (p Params) NoisePowerDBm() float64 {
	return -174 + 10*math.Log10(p.RBBandwidthHz) + p.NoiseFigureDB
}

// Link models one user's channel to a base station, holding the
// slow-varying shadowing state and the stream of its i.i.d. Rayleigh
// fades: DrawFade draws one sample's fade, and SNRsInto turns a chunk
// of samples — station, position and fade each — into SNRs.
type Link struct {
	// prop holds the parameters with the path-loss reference and the
	// noise power taken at construction.
	prop     Propagation
	bs       *BaseStation
	shadowDB float64
	rng      *rand.Rand
}

// NewLink creates a link with freshly drawn shadowing: Init into a new
// one.
func NewLink(params Params, bs *BaseStation, rng *rand.Rand) (*Link, error) {
	l := new(Link)
	if err := l.Init(params, bs, rng); err != nil {
		return nil, err
	}
	return l, nil
}

// Init builds the link in place, drawing its shadowing from rng (which
// it keeps for the fades). It makes three NormFloat64 draws: the
// shadowing, then two it discards. The parameters are checked before
// anything is drawn; on error the link is left as it was.
func (l *Link) Init(params Params, bs *BaseStation, rng *rand.Rand) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if bs == nil {
		return fmt.Errorf("nil base station: %w", ErrParam)
	}
	*l = Link{
		prop:     params.Propagation(),
		bs:       bs,
		shadowDB: rng.NormFloat64() * params.ShadowSigmaDB,
		rng:      rng,
	}
	// Two discarded draws, where the link once drew an AR(1) fading
	// tap, keep every later fade at its place in the stream.
	rng.NormFloat64()
	rng.NormFloat64()
	return nil
}

// BS returns the serving base station.
func (l *Link) BS() *BaseStation { return l.bs }

// Handover re-points the link at a new serving base station while
// keeping the shadowing state: the slow fade is modeled as user-local
// clutter (body/indoor loss) that travels with the user, which also
// keeps the digital twin's calibration offset valid across cells.
func (l *Link) Handover(bs *BaseStation) error {
	if bs == nil {
		return fmt.Errorf("handover to nil bs: %w", ErrParam)
	}
	l.bs = bs
	return nil
}

// DrawFade draws one sample's independent Rayleigh fade and returns
// its power |h|², which is Exp(1), floored at 1e-9 (−90 dB). This is
// the link's only random draw per sample: the SNR itself is
// deterministic given the fade, so a caller can draw a chunk of samples
// in order and evaluate them together with SNRsInto.
func (l *Link) DrawFade() float64 {
	return max(l.rng.ExpFloat64(), 1e-9)
}

// Reception is one sample's input to the propagation model: the
// serving base station, the user's position and the fade power
// DrawFade returned for it (ignored by MeanSNRsInto).
type Reception struct {
	BS   *BaseStation
	Pos  mobility.Point
	Fade float64
}

// SNRsInto sets dst[i] to the instantaneous SNR (dB) of reception
// rs[i] on this link: TX power − path loss − shadowing + fading −
// noise. dst must hold len(rs) values. Each sample's distance is one
// lane of a vecmath.HypotInto and its two logarithms — path loss and
// fade — two lanes of one vecmath.LogInto, so the result is bit for
// bit the scalar expression over math.Hypot and math.Log10.
func (l *Link) SNRsInto(dst []float64, rs []Reception) {
	l.prop.snrsInto(dst, rs, l.shadowDB, true)
}

// Sample draws one fade and returns the SNR (dB) at userPos from the
// serving station: DrawFade, then SNRsInto of that one reception. It is
// the one-sample form for callers that step a tick at a time.
func (l *Link) Sample(userPos mobility.Point) float64 {
	rs := [1]Reception{{BS: l.bs, Pos: userPos, Fade: l.DrawFade()}}
	var snr [1]float64
	l.SNRsInto(snr[:], rs[:])
	return snr[0]
}

// SpectralEfficiency converts an SNR in dB to Shannon spectral
// efficiency bits/s/Hz, capped at 7.8 (64-QAM 5/6-ish practical max).
func SpectralEfficiency(snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	se := math.Log2(1 + snr)
	if se > 7.8 {
		se = 7.8
	}
	return se
}

// RateBps returns the achievable rate of one resource block at the
// given SNR for the parameter set.
func (p Params) RateBps(snrDB float64) float64 {
	return p.RBBandwidthHz * SpectralEfficiency(snrDB)
}

// MeanSNRdB returns the deterministic (fading- and shadowing-free)
// SNR of a link at distance d for the given transmit power. Digital
// twins use it as the propagation model underlying calibrated SNR
// prediction: observed SNR minus MeanSNRdB yields a per-user offset
// that absorbs shadowing and mean fading.
func (p Params) MeanSNRdB(txPowerDBm, d float64) float64 {
	return p.Propagation().MeanSNRdB(txPowerDBm, d)
}

// Propagation is a parameter set's deterministic propagation model
// with its constant terms — the carrier-adjusted path-loss reference
// and the noise power — taken once, for callers that evaluate it
// many times.
type Propagation struct {
	params     Params
	ref, noise float64
}

// Propagation returns the parameter set's propagation model.
func (p Params) Propagation() Propagation {
	return Propagation{params: p, ref: p.refDB(), noise: p.NoisePowerDBm()}
}

// MeanSNRdB is Params.MeanSNRdB over the precomputed terms, bit for
// bit.
func (m Propagation) MeanSNRdB(txPowerDBm, d float64) float64 {
	return txPowerDBm - m.params.pathLossDB(m.ref, d) - m.noise
}

// MeanSNRsInto sets dst[i] to MeanSNRdB of reception rs[i] — its
// station's TX power at its distance from the station — bit for bit,
// through the same batched evaluation as Link.SNRsInto. dst must hold
// len(rs) values.
func (m Propagation) MeanSNRsInto(dst []float64, rs []Reception) {
	m.snrsInto(dst, rs, 0, false)
}

// batchLen is the most receptions one pass of snrsInto stages: the
// distances and fades of a pass share one stack array of 2·batchLen
// values.
const batchLen = 32

// snrsInto evaluates the propagation model over rs a pass of at most
// batchLen at a time: the station distances in one HypotInto, then the
// path-loss logarithms (and, when faded, the fade logarithms after
// them) in one LogInto. Each expression keeps the shape of its scalar
// form — pathLossDB's ref + 37.6·log10(d/1000) with the MinDistM clamp,
// 10·log10(|h|²), and log10(x) = ln(x)·(1/Ln10) as math.Log10 computes
// it — so every value is that form's, bit for bit.
func (m Propagation) snrsInto(dst []float64, rs []Reception, shadowDB float64, faded bool) {
	dst = dst[:len(rs)]
	for len(rs) > 0 {
		n := min(len(rs), batchLen)
		var buf [2 * batchLen]float64
		dist, aux := buf[:n], buf[n:2*n]
		for i, r := range rs[:n] {
			dist[i] = r.BS.Pos.X - r.Pos.X
			aux[i] = r.BS.Pos.Y - r.Pos.Y
		}
		vecmath.HypotInto(dist, dist, aux)
		for i, d := range dist {
			if d < m.params.MinDistM {
				d = m.params.MinDistM
			}
			dist[i] = d / 1000
		}
		lg := dist
		if faded {
			for i, r := range rs[:n] {
				aux[i] = r.Fade
			}
			lg = buf[:2*n]
		}
		vecmath.LogInto(lg, lg)
		for i, r := range rs[:n] {
			pl := m.ref + 37.6*(lg[i]*(1/math.Ln10))
			if !faded {
				dst[i] = r.BS.TxPowerDBm - pl - m.noise
				continue
			}
			fadeDB := 10 * (lg[n+i] * (1 / math.Ln10))
			rxDBm := r.BS.TxPowerDBm - pl - shadowDB + fadeDB
			dst[i] = rxDBm - m.noise
		}
		dst, rs = dst[n:], rs[n:]
	}
}

// CQI quantizes an SNR (dB) into a 1..15 channel-quality indicator,
// the discrete "channel condition" stored in UDTs. The thresholds are
// a standard LTE-like mapping of roughly -6 dB..20 dB.
func CQI(snrDB float64) int {
	// 15 levels spanning [-6, 20) dB, ~1.86 dB per step.
	const lo, hi = -6.0, 20.0
	if snrDB < lo {
		return 1
	}
	if snrDB >= hi {
		return 15
	}
	q := 1 + int((snrDB-lo)/(hi-lo)*15)
	if q > 15 {
		q = 15
	}
	return q
}

// NearestBS returns the base station closest to the position: the
// first, in slice order, at the smallest Euclidean distance.
func NearestBS(stations []*BaseStation, pos mobility.Point) (*BaseStation, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("no base stations: %w", ErrParam)
	}
	return nearest(stations, nil, pos), nil
}

// NearestAliveBS returns the closest base station whose id is not
// marked in down. A nil (or empty) mask degenerates to NearestBS
// exactly — same iteration order, same tie-breaking — so healthy
// deployments pay nothing for the capability. A mask that rules out
// every station is an error: the map has no coverage left.
func NearestAliveBS(stations []*BaseStation, down []bool, pos mobility.Point) (*BaseStation, error) {
	if len(down) == 0 {
		return NearestBS(stations, pos)
	}
	best := nearest(stations, down, pos)
	if best == nil {
		return nil, fmt.Errorf("no surviving base stations: %w", ErrParam)
	}
	return best, nil
}

// The squared-distance screen of nearest. A station whose squared
// distance exceeds the smallest by more than screenTol (relative) is
// farther by more than screenTol/2, while dx²+dy² and math.Hypot each
// err by a few ulp (~1e-16): its Hypot is strictly larger than the
// nearest station's, so it can neither win nor tie and need not be
// measured. Below screenFloor the squares lose relative precision to
// underflow and the screen stands aside.
const (
	screenTol   = 1e-9
	screenFloor = 1e-280
)

// nearest returns the first live station (not marked in down) at the
// smallest math.Hypot distance — exactly what a plain Hypot scan with a
// strict < returns — or nil when none is live. It screens on squared
// distance: when the runner-up square is more than screenTol above the
// smallest, the smallest is the answer and no Hypot is taken; otherwise
// only the stations within screenTol of the smallest square are
// measured, in slice order. Non-finite or underflowing squares fall
// back to the plain scan.
func nearest(stations []*BaseStation, down []bool, pos mobility.Point) *BaseStation {
	var best *BaseStation
	minSq, nextSq := math.Inf(1), math.Inf(1)
	for _, bs := range stations {
		if isDown(bs, down) {
			continue
		}
		switch sq := sqDist(bs.Pos, pos); {
		case !(sq <= math.MaxFloat64): // NaN or +Inf
			return nearestScan(stations, down, pos, math.Inf(1))
		case sq < minSq:
			best, minSq, nextSq = bs, sq, minSq
		case sq < nextSq:
			nextSq = sq
		}
	}
	if minSq < screenFloor {
		return nearestScan(stations, down, pos, math.Inf(1))
	}
	// With no live station both squares are +Inf, a "tie" whose scan
	// finds nothing.
	if limit := minSq + minSq*screenTol; nextSq <= limit {
		return nearestScan(stations, down, pos, limit)
	}
	return best
}

// nearestScan is the plain Hypot scan over the live stations whose
// squared distance is at most limit (+Inf: all of them).
func nearestScan(stations []*BaseStation, down []bool, pos mobility.Point, limit float64) *BaseStation {
	var best *BaseStation
	var bestD float64
	for _, bs := range stations {
		if isDown(bs, down) || sqDist(bs.Pos, pos) > limit {
			continue
		}
		if d := bs.Pos.Dist(pos); best == nil || d < bestD {
			best, bestD = bs, d
		}
	}
	return best
}

// isDown reports whether the mask rules the station out.
func isDown(bs *BaseStation, down []bool) bool {
	return bs.ID >= 0 && bs.ID < len(down) && down[bs.ID]
}

// sqDist is the squared Euclidean distance, each product rounded on
// its own (the conversions forbid a fused multiply-add) so both passes
// of nearest see the same value.
func sqDist(p, q mobility.Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// GridDeploy places n base stations on a uniform grid over the map
// with the given per-RB transmit power.
func GridDeploy(m *mobility.Map, n int, txPowerDBm float64) ([]*BaseStation, error) {
	if m == nil || n <= 0 {
		return nil, fmt.Errorf("deploy %d stations: %w", n, ErrParam)
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	out := make([]*BaseStation, 0, n)
	id := 0
	for i := 0; i < side && id < n; i++ {
		for j := 0; j < side && id < n; j++ {
			out = append(out, &BaseStation{
				ID: id,
				Pos: mobility.Point{
					X: (float64(i) + 0.5) * m.Width / float64(side),
					Y: (float64(j) + 0.5) * m.Height / float64(side),
				},
				TxPowerDBm: txPowerDBm,
			})
			id++
		}
	}
	return out, nil
}
