package mobility

import (
	"fmt"
	"math"
	"math/rand"
)

// GaussMarkov implements the Gauss-Markov mobility model: speed and
// direction evolve as first-order autoregressive processes
//
//	s(t+1) = α·s(t) + (1−α)·s̄ + √(1−α²)·σs·N(0,1)
//	d(t+1) = α·d(t) + (1−α)·d̄ + √(1−α²)·σd·N(0,1)
//
// which produces smoother, more temporally correlated trajectories
// than random waypoint — the regime where the digital twin's velocity
// extrapolation shines. Users reflect off the map boundary.
type GaussMarkov struct {
	m   *Map
	rng *rand.Rand

	pos        Point
	speed, dir float64

	// Alpha is the memory parameter in [0,1): 0 = memoryless, →1 =
	// near-constant velocity.
	Alpha float64
	// MeanSpeed and SpeedSigma parameterize the speed process (m/s).
	MeanSpeed, SpeedSigma float64
	// DirSigma is the direction noise (radians).
	DirSigma float64
}

// NewGaussMarkov creates a walker at a uniform position with a
// uniform initial direction: Init into a new walker.
func NewGaussMarkov(m *Map, alpha, meanSpeed, speedSigma, dirSigma float64, rng *rand.Rand) (*GaussMarkov, error) {
	g := new(GaussMarkov)
	if err := g.Init(m, alpha, meanSpeed, speedSigma, dirSigma, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// Init builds the walker in place, drawing its start and direction
// from rng (which it keeps). The parameters are checked before
// anything is drawn; on error the walker is left as it was.
func (g *GaussMarkov) Init(m *Map, alpha, meanSpeed, speedSigma, dirSigma float64, rng *rand.Rand) error {
	if m == nil {
		return fmt.Errorf("nil map: %w", ErrParam)
	}
	if alpha < 0 || alpha >= 1 {
		return fmt.Errorf("alpha %v: %w", alpha, ErrParam)
	}
	if meanSpeed <= 0 || speedSigma < 0 || dirSigma < 0 {
		return fmt.Errorf("speed %v sigma %v dir sigma %v: %w", meanSpeed, speedSigma, dirSigma, ErrParam)
	}
	*g = GaussMarkov{
		m: m, rng: rng,
		pos:   m.RandomPoint(rng),
		speed: meanSpeed,
		dir:   rng.Float64() * 2 * math.Pi,
		Alpha: alpha, MeanSpeed: meanSpeed, SpeedSigma: speedSigma, DirSigma: dirSigma,
	}
	return nil
}

var _ Model = (*GaussMarkov)(nil)

// Position implements Model.
func (g *GaussMarkov) Position() Point { return g.pos }

// Advance implements Model. The AR update runs once per call (the
// engine calls it once per collection tick, giving the standard
// discrete-time formulation).
func (g *GaussMarkov) Advance(dt float64) (Point, error) {
	if dt <= 0 {
		return g.pos, fmt.Errorf("advance dt=%v: %w", dt, ErrParam)
	}
	noise := math.Sqrt(1 - g.Alpha*g.Alpha)
	g.speed = g.Alpha*g.speed + (1-g.Alpha)*g.MeanSpeed + noise*g.SpeedSigma*g.rng.NormFloat64()
	if g.speed < 0 {
		g.speed = 0
	}
	meanDir := g.dir // locally, the mean direction is the current one
	g.dir = g.Alpha*g.dir + (1-g.Alpha)*meanDir + noise*g.DirSigma*g.rng.NormFloat64()

	next := Point{
		X: g.pos.X + g.speed*dt*math.Cos(g.dir),
		Y: g.pos.Y + g.speed*dt*math.Sin(g.dir),
	}
	// Reflect off boundaries.
	if next.X < 0 {
		next.X = -next.X
		g.dir = math.Pi - g.dir
	}
	if next.X > g.m.Width {
		next.X = 2*g.m.Width - next.X
		g.dir = math.Pi - g.dir
	}
	if next.Y < 0 {
		next.Y = -next.Y
		g.dir = -g.dir
	}
	if next.Y > g.m.Height {
		next.Y = 2*g.m.Height - next.Y
		g.dir = -g.dir
	}
	g.pos = g.m.Clamp(next)
	return g.pos, nil
}
