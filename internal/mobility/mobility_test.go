package mobility

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist %v, want 5", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Fatalf("dist %v, want 0", d)
	}
}

func TestCampusMap(t *testing.T) {
	m := CampusMap()
	if m.Width != 2000 || m.Height != 2000 {
		t.Fatalf("campus %vx%v", m.Width, m.Height)
	}
	if len(m.Landmarks) != 25 {
		t.Fatalf("%d landmarks, want 25", len(m.Landmarks))
	}
	for _, l := range m.Landmarks {
		if !m.Contains(l) {
			t.Fatalf("landmark %v outside map", l)
		}
	}
}

func TestContainsClamp(t *testing.T) {
	m := CampusMap()
	if m.Contains(Point{-1, 0}) || m.Contains(Point{0, 2001}) {
		t.Fatal("out-of-bounds point reported inside")
	}
	c := m.Clamp(Point{-50, 3000})
	if c.X != 0 || c.Y != 2000 {
		t.Fatalf("clamp = %v", c)
	}
}

func TestRandomPointInBounds(t *testing.T) {
	m := CampusMap()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p := m.RandomPoint(rng); !m.Contains(p) {
			t.Fatalf("random point %v outside", p)
		}
	}
}

func TestRandomWaypointValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewRandomWaypoint(nil, 1, 2, 0, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	m := CampusMap()
	if _, err := NewRandomWaypoint(m, 0, 2, 0, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewRandomWaypoint(m, 3, 2, 0, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("max<min: want ErrParam, got %v", err)
	}
	if _, err := NewRandomWaypoint(m, 1, 2, -1, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("negative pause: want ErrParam, got %v", err)
	}
}

func TestRandomWaypointStaysInBoundsAndMoves(t *testing.T) {
	m := CampusMap()
	rng := rand.New(rand.NewSource(3))
	w, err := NewRandomWaypoint(m, 1, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	start := w.Position()
	var traveled float64
	prev := start
	for i := 0; i < 500; i++ {
		p, aerr := w.Advance(10)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if !m.Contains(p) {
			t.Fatalf("walker left map: %v", p)
		}
		traveled += prev.Dist(p)
		prev = p
	}
	if traveled == 0 {
		t.Fatal("walker never moved")
	}
	if _, err := w.Advance(0); !errors.Is(err, ErrParam) {
		t.Fatalf("dt=0: want ErrParam, got %v", err)
	}
}

// Speed property: distance covered in one Advance(dt) never exceeds
// maxSpeed*dt (pauses only slow it down).
func TestRandomWaypointSpeedBound(t *testing.T) {
	f := func(seed int64) bool {
		m := CampusMap()
		rng := rand.New(rand.NewSource(seed))
		const maxSpeed = 2.5
		w, err := NewRandomWaypoint(m, 0.5, maxSpeed, 1, rng)
		if err != nil {
			return false
		}
		prev := w.Position()
		for i := 0; i < 50; i++ {
			const dt = 7.0
			p, aerr := w.Advance(dt)
			if aerr != nil {
				return false
			}
			if prev.Dist(p) > maxSpeed*dt+1e-6 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLandmarkWalkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := CampusMap()
	if _, err := NewLandmarkWalk(nil, 3, 1, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewLandmarkWalk(m, 1, 1, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("route too short: want ErrParam, got %v", err)
	}
	if _, err := NewLandmarkWalk(m, 99, 1, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("route too long: want ErrParam, got %v", err)
	}
	if _, err := NewLandmarkWalk(m, 3, 0, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("zero speed: want ErrParam, got %v", err)
	}
	empty := &Map{Width: 100, Height: 100}
	if _, err := NewLandmarkWalk(empty, 2, 1, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("no landmarks: want ErrParam, got %v", err)
	}
}

func TestLandmarkWalkVisitsRoute(t *testing.T) {
	m := CampusMap()
	rng := rand.New(rand.NewSource(5))
	w, err := NewLandmarkWalk(m, 3, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	route := w.route
	if len(route) != 3 {
		t.Fatalf("route len %d", len(route))
	}
	if w.Position() != route[0] {
		t.Fatal("walker must start at first landmark")
	}
	// Advance long enough to have looped the route at least once.
	visited := map[Point]bool{}
	for i := 0; i < 3000; i++ {
		p, aerr := w.Advance(1)
		if aerr != nil {
			t.Fatal(aerr)
		}
		for _, lm := range route {
			// Detection radius = one step of travel (speed×dt).
			if p.Dist(lm) <= 10 {
				visited[lm] = true
			}
		}
	}
	if len(visited) != 3 {
		t.Fatalf("visited %d of 3 route landmarks", len(visited))
	}
}

// TestLandmarkWalkRouteIsPerm: a walker's route is the first routeLen
// entries of rand.Perm over the landmarks, drawn with the same draws
// (the stream stands where Perm leaves it), at every route length and
// into a walker's own storage as into new.
func TestLandmarkWalkRouteIsPerm(t *testing.T) {
	m := CampusMap()
	walks := NewLandmarkWalks(1, len(m.Landmarks))
	for routeLen := 2; routeLen <= len(m.Landmarks); routeLen++ {
		for seed := int64(1); seed <= 20; seed++ {
			want := rand.New(rand.NewSource(seed))
			perm := want.Perm(len(m.Landmarks))
			rng := rand.New(rand.NewSource(seed))
			l := &walks[0]
			if seed%2 == 0 {
				l = new(LandmarkWalk)
			}
			if err := l.Init(m, routeLen, 1, rng); err != nil {
				t.Fatal(err)
			}
			if len(l.route) != routeLen {
				t.Fatalf("route of %d stops, want %d", len(l.route), routeLen)
			}
			for i, p := range l.route {
				if p != m.Landmarks[perm[i]] {
					t.Fatalf("length %d seed %d: stop %d is %v, Perm's is %v", routeLen, seed, i, p, m.Landmarks[perm[i]])
				}
			}
			if rng.Int63() != want.Int63() {
				t.Fatalf("length %d seed %d: the stream left where Perm does not leave it", routeLen, seed)
			}
		}
	}
}

// TestInitInPlaceAllocatesNothing: each model's Init builds it in its
// own storage, a landmark walker's route included when the walker
// comes from NewLandmarkWalks with room for it.
func TestInitInPlaceAllocatesNothing(t *testing.T) {
	m := CampusMap()
	rng := rand.New(rand.NewSource(9))
	var (
		w RandomWaypoint
		g GaussMarkov
	)
	l := &NewLandmarkWalks(1, 5)[0]
	if n := testing.AllocsPerRun(10, func() {
		if err := w.Init(m, 0.4, 1.2, 90, rng); err != nil {
			t.Fatal(err)
		}
		if err := l.Init(m, 2+rng.Intn(4), 0.8, rng); err != nil {
			t.Fatal(err)
		}
		if err := g.Init(m, 0.9, 0.9, 0.2, 0.25, rng); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Init allocates %.0f times", n)
	}
}

func TestStatic(t *testing.T) {
	s := &Static{P: Point{5, 7}}
	p, err := s.Advance(100)
	if err != nil {
		t.Fatal(err)
	}
	if p != s.Position() || p.X != 5 || p.Y != 7 {
		t.Fatalf("static moved: %v", p)
	}
	if _, err := s.Advance(-1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	// With an enormous pause, the walker should spend most time still.
	m := &Map{Width: 10, Height: 10}
	rng := rand.New(rand.NewSource(7))
	w, err := NewRandomWaypoint(m, 5, 5, 1e6, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Reach first waypoint (map is tiny, speed high).
	if _, err := w.Advance(10); err != nil {
		t.Fatal(err)
	}
	p1 := w.Position()
	if _, err := w.Advance(100); err != nil {
		t.Fatal(err)
	}
	p2 := w.Position()
	if math.Abs(p1.X-p2.X) > 1e-9 || math.Abs(p1.Y-p2.Y) > 1e-9 {
		t.Fatalf("walker moved during pause: %v -> %v", p1, p2)
	}
}

func TestGaussMarkovValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := CampusMap()
	if _, err := NewGaussMarkov(nil, 0.8, 1, 0.2, 0.3, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewGaussMarkov(m, 1.0, 1, 0.2, 0.3, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("alpha 1: want ErrParam, got %v", err)
	}
	if _, err := NewGaussMarkov(m, 0.8, 0, 0.2, 0.3, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("zero speed: want ErrParam, got %v", err)
	}
	if _, err := NewGaussMarkov(m, 0.8, 1, -1, 0.3, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("negative sigma: want ErrParam, got %v", err)
	}
}

func TestGaussMarkovStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := CampusMap()
	g, err := NewGaussMarkov(m, 0.85, 1.2, 0.3, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	var traveled float64
	prev := g.Position()
	for i := 0; i < 2000; i++ {
		p, aerr := g.Advance(10)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if !m.Contains(p) {
			t.Fatalf("walker left map at step %d: %v", i, p)
		}
		traveled += prev.Dist(p)
		prev = p
	}
	if traveled == 0 {
		t.Fatal("gauss-markov walker never moved")
	}
	if _, err := g.Advance(0); !errors.Is(err, ErrParam) {
		t.Fatalf("dt=0: want ErrParam, got %v", err)
	}
}

// High alpha gives smoother headings: mean step-to-step displacement
// correlation must exceed that of a low-alpha walker.
func TestGaussMarkovAlphaSmoothness(t *testing.T) {
	heading := func(alpha float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		m := &Map{Width: 1e7, Height: 1e7} // effectively unbounded
		g, err := NewGaussMarkov(m, alpha, 1.4, 0.1, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		g.pos = Point{X: 5e6, Y: 5e6}
		prev := g.Position()
		var prevDX, prevDY float64
		var corr float64
		var n int
		for i := 0; i < 500; i++ {
			p, aerr := g.Advance(10)
			if aerr != nil {
				t.Fatal(aerr)
			}
			dx, dy := p.X-prev.X, p.Y-prev.Y
			norm := math.Hypot(dx, dy)
			if norm > 0 && i > 0 {
				prevNorm := math.Hypot(prevDX, prevDY)
				if prevNorm > 0 {
					corr += (dx*prevDX + dy*prevDY) / (norm * prevNorm)
					n++
				}
			}
			prevDX, prevDY = dx, dy
			prev = p
		}
		return corr / float64(n)
	}
	smooth := heading(0.95, 10)
	rough := heading(0.05, 10)
	if smooth <= rough {
		t.Fatalf("alpha smoothness violated: %v (0.95) <= %v (0.05)", smooth, rough)
	}
}
