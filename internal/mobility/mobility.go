// Package mobility models user movement over a 2-D campus region.
// The paper initializes users at random positions on the University of
// Waterloo campus and moves them along different trajectories; we
// provide a rectangular campus map with named landmarks, a
// random-waypoint model and a landmark-trajectory model (see the
// README's synthetic inputs).
package mobility

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrParam indicates an invalid mobility parameter.
var ErrParam = errors.New("mobility: invalid parameter")

// Point is a 2-D position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Map is a rectangular campus region with named landmarks users
// travel between.
type Map struct {
	Width, Height float64 // meters
	Landmarks     []Point
}

// CampusMap returns a 2 km × 2 km region with a grid of landmarks
// standing in for campus buildings (library, residences, lecture
// halls, ...). Landmark spacing is ~400 m.
func CampusMap() *Map {
	m := &Map{Width: 2000, Height: 2000}
	for x := 200.0; x < 2000; x += 400 {
		for y := 200.0; y < 2000; y += 400 {
			m.Landmarks = append(m.Landmarks, Point{X: x, Y: y})
		}
	}
	return m
}

// Contains reports whether p lies within the map.
func (m *Map) Contains(p Point) bool {
	return p.X >= 0 && p.X <= m.Width && p.Y >= 0 && p.Y <= m.Height
}

// Clamp forces p into the map bounds.
func (m *Map) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, 0), m.Width),
		Y: math.Min(math.Max(p.Y, 0), m.Height),
	}
}

// RandomPoint draws a uniform position on the map.
func (m *Map) RandomPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64() * m.Width, Y: rng.Float64() * m.Height}
}

// Model advances a single user's position in discrete time steps.
type Model interface {
	// Position returns the current position.
	Position() Point
	// Advance moves the user by dt seconds and returns the new
	// position.
	Advance(dt float64) (Point, error)
}

// RandomWaypoint implements the classic random-waypoint model: pick a
// uniform destination, walk toward it at a speed drawn from
// [MinSpeed, MaxSpeed], pause, repeat.
type RandomWaypoint struct {
	m                  *Map
	rng                *rand.Rand
	pos, dst           Point
	speed              float64
	minSpeed, maxSpeed float64
	pause, pauseLeft   float64
}

// NewRandomWaypoint creates a walker starting at a uniform position.
// Speeds are in m/s; pause in seconds after reaching each waypoint. It
// is Init into a new walker.
func NewRandomWaypoint(m *Map, minSpeed, maxSpeed, pause float64, rng *rand.Rand) (*RandomWaypoint, error) {
	w := new(RandomWaypoint)
	if err := w.Init(m, minSpeed, maxSpeed, pause, rng); err != nil {
		return nil, err
	}
	return w, nil
}

// Init builds the walker in place, drawing its start and first
// waypoint from rng (which it keeps). The parameters are checked
// before anything is drawn; on error the walker is left as it was.
func (w *RandomWaypoint) Init(m *Map, minSpeed, maxSpeed, pause float64, rng *rand.Rand) error {
	if m == nil {
		return fmt.Errorf("nil map: %w", ErrParam)
	}
	if minSpeed <= 0 || maxSpeed < minSpeed || pause < 0 {
		return fmt.Errorf("speeds [%v,%v] pause %v: %w", minSpeed, maxSpeed, pause, ErrParam)
	}
	*w = RandomWaypoint{
		m: m, rng: rng,
		pos:      m.RandomPoint(rng),
		minSpeed: minSpeed, maxSpeed: maxSpeed, pause: pause,
	}
	w.pickDestination()
	return nil
}

var _ Model = (*RandomWaypoint)(nil)

func (w *RandomWaypoint) pickDestination() {
	w.dst = w.m.RandomPoint(w.rng)
	w.speed = w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
}

// Position implements Model.
func (w *RandomWaypoint) Position() Point { return w.pos }

// Advance implements Model.
func (w *RandomWaypoint) Advance(dt float64) (Point, error) {
	if dt <= 0 {
		return w.pos, fmt.Errorf("advance dt=%v: %w", dt, ErrParam)
	}
	remaining := dt
	for remaining > 0 {
		if w.pauseLeft > 0 {
			wait := math.Min(w.pauseLeft, remaining)
			w.pauseLeft -= wait
			remaining -= wait
			continue
		}
		d := w.pos.Dist(w.dst)
		step := w.speed * remaining
		if step < d {
			frac := step / d
			w.pos.X += (w.dst.X - w.pos.X) * frac
			w.pos.Y += (w.dst.Y - w.pos.Y) * frac
			break
		}
		// Arrive, pause, pick a new destination.
		travelTime := d / w.speed
		remaining -= travelTime
		w.pos = w.dst
		w.pauseLeft = w.pause
		w.pickDestination()
	}
	return w.pos, nil
}

// LandmarkWalk moves a user along a cyclic sequence of map landmarks
// (a "trajectory" in the paper's wording), with per-user speed.
type LandmarkWalk struct {
	m     *Map
	route []Point
	speed float64
	pos   Point
	next  int
}

// NewLandmarkWalk builds a walker over a random route of routeLen
// distinct landmarks at the given speed (m/s): Init into a new walker.
func NewLandmarkWalk(m *Map, routeLen int, speed float64, rng *rand.Rand) (*LandmarkWalk, error) {
	l := new(LandmarkWalk)
	if err := l.Init(m, routeLen, speed, rng); err != nil {
		return nil, err
	}
	return l, nil
}

// NewLandmarkWalks returns n zero walkers whose route storage is one
// shared array, maxRoute points each, so an Init of a route at most
// maxRoute long — and every later Init of that walker — allocates
// nothing.
func NewLandmarkWalks(n, maxRoute int) []LandmarkWalk {
	walks := make([]LandmarkWalk, n)
	stops := make([]Point, n*maxRoute)
	for i := range walks {
		walks[i].route = stops[i*maxRoute : i*maxRoute : (i+1)*maxRoute]
	}
	return walks
}

// Init builds the walker in place over a random route of routeLen
// distinct landmarks at the given speed (m/s), in the walker's own
// route storage when it has room (a new array otherwise). The route is
// the first routeLen entries of rng.Perm(len(m.Landmarks)), drawn with
// the same draws in the same order, but only those entries are kept:
// in Perm's inside-out shuffle a value placed at or beyond routeLen
// never moves back below it. The parameters are checked before
// anything is drawn; on error the walker is left as it was.
func (l *LandmarkWalk) Init(m *Map, routeLen int, speed float64, rng *rand.Rand) error {
	if m == nil || len(m.Landmarks) == 0 {
		return fmt.Errorf("map without landmarks: %w", ErrParam)
	}
	if routeLen < 2 || routeLen > len(m.Landmarks) {
		return fmt.Errorf("route length %d of %d landmarks: %w", routeLen, len(m.Landmarks), ErrParam)
	}
	if speed <= 0 {
		return fmt.Errorf("speed %v: %w", speed, ErrParam)
	}
	route := l.route[:0]
	if cap(route) < routeLen {
		route = make([]Point, 0, routeLen)
	}
	route = route[:routeLen]
	for i := range m.Landmarks {
		j := rng.Intn(i + 1)
		if i < routeLen {
			route[i] = route[j]
		}
		if j < routeLen {
			route[j] = m.Landmarks[i]
		}
	}
	*l = LandmarkWalk{m: m, route: route, speed: speed, pos: route[0], next: 1}
	return nil
}

var _ Model = (*LandmarkWalk)(nil)

// Position implements Model.
func (l *LandmarkWalk) Position() Point { return l.pos }

// Advance implements Model.
func (l *LandmarkWalk) Advance(dt float64) (Point, error) {
	if dt <= 0 {
		return l.pos, fmt.Errorf("advance dt=%v: %w", dt, ErrParam)
	}
	remaining := dt
	for remaining > 0 {
		target := l.route[l.next]
		d := l.pos.Dist(target)
		step := l.speed * remaining
		if step < d {
			frac := step / d
			l.pos.X += (target.X - l.pos.X) * frac
			l.pos.Y += (target.Y - l.pos.Y) * frac
			break
		}
		if l.speed <= 0 || d == 0 {
			l.pos = target
			l.next = (l.next + 1) % len(l.route)
			continue
		}
		remaining -= d / l.speed
		l.pos = target
		l.next = (l.next + 1) % len(l.route)
	}
	return l.pos, nil
}

// Static is a non-moving user (e.g. seated in a lecture hall).
type Static struct {
	P Point
}

var _ Model = (*Static)(nil)

// Position implements Model.
func (s *Static) Position() Point { return s.P }

// Advance implements Model.
func (s *Static) Advance(dt float64) (Point, error) {
	if dt <= 0 {
		return s.P, fmt.Errorf("advance dt=%v: %w", dt, ErrParam)
	}
	return s.P, nil
}
