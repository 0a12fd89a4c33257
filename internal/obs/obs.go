// Package obs is the dependency-free observability substrate of the
// digital-twin system: counters, gauges and fixed-bucket histograms
// with zero-allocation hot-path updates, plus hierarchical stage
// timers layered on top of a shared duration histogram family.
//
// Design constraints, in order:
//
//   - Determinism first. Metrics never touch engine state — no RNG
//     draws, no float accumulation that feeds back into the
//     simulation. Traces are bit-identical with metrics on or off.
//   - Disabled is free. Every handle type (*Counter, *Gauge,
//     *Histogram, *Stage) treats a nil receiver as a no-op, and a nil
//     *Registry hands out nil handles, so un-instrumented runs pay a
//     single predictable nil check per site. (*Stage).Start returns
//     the zero time.Time on a nil stage, skipping the time.Now call
//     entirely.
//   - Hot paths allocate nothing. Counter.Inc, Gauge.Set/Add and
//     Histogram.Observe are single atomic operations (a short CAS
//     loop for float sums) over storage fixed at registration time;
//     the alloc gates in obs_test.go enforce 0 allocs/op.
//   - Reads are race-free and live. Snapshot may be called from an
//     HTTP handler goroutine while the engines are mid-interval; all
//     storage is atomic and registration is mutex-guarded, so the
//     race detector stays quiet and exported values are internally
//     consistent per metric.
//
// Registration is idempotent: asking for the same (family, labels)
// series twice returns the same handle. Families are keyed by name
// and carry a single kind; re-registering a name under a different
// kind (or a histogram under different bounds) is a programming error
// and panics. Snapshot output is deterministic — families sorted by
// name, series by label signature — so golden tests and diffable
// end-of-run dumps work without post-processing.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to a metric series, e.g.
// {Name: "cell", Value: "3"}. Labels are ordered by name internally;
// the order they are passed in does not matter.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Kind discriminates the three metric families.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// StageFamily is the histogram family name shared by all Stage
// timers; each stage is one series labelled stage="<name>" (plus any
// extra labels such as the owning cell).
const StageFamily = "dtmsvs_stage_duration_seconds"

// DurationBuckets is the fixed bucket layout used by Stage timers:
// log-spaced upper bounds from 100µs to 60s, wide enough for a city-
// scale prologue and fine enough to see a 1 ms scheduler pass. The
// implicit +Inf bucket is appended by the histogram itself.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// Registry holds metric families and hands out hot-path handles. The
// zero value is ready to use; a nil *Registry is the disabled
// registry and hands out nil (no-op) handles everywhere.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty, enabled registry.
func New() *Registry { return &Registry{} }

type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram upper bounds, nil otherwise
	series map[string]*series
}

type series struct {
	labels    []Label // sorted by name
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// Counter is a monotonically increasing uint64. The nil counter is a
// no-op; Inc and Add are single atomic adds.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that may go up or down, stored as IEEE-754 bits
// in a single atomic word. The nil gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is a linear scan over the (short) bound
// slice plus three atomic updates; it allocates nothing. The nil
// histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Stage is a named wall-clock span recorder over the shared
// StageFamily histogram. The usual pattern brackets a pipeline phase:
//
//	t := met.schedule.Start()
//	... phase body ...
//	met.schedule.ObserveSince(t)
//
// On a nil stage Start returns the zero time and ObserveSince
// returns immediately, so disabled instrumentation never calls
// time.Now.
type Stage struct{ h *Histogram }

// Start returns the span start time, or the zero time when disabled.
func (s *Stage) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the span from t0 to now. A zero t0 (from a
// nil stage's Start, or a caller that skipped timing) is ignored.
func (s *Stage) ObserveSince(t0 time.Time) {
	if s == nil || t0.IsZero() {
		return
	}
	s.h.Observe(time.Since(t0).Seconds())
}

// Observe records an externally measured span duration.
func (s *Stage) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.h.Observe(d.Seconds())
}

// Histogram returns the underlying histogram (nil when disabled).
func (s *Stage) Histogram() *Histogram {
	if s == nil {
		return nil
	}
	return s.h
}

// labelKey builds the canonical series key from sorted labels. Only
// called at registration time, so the allocations don't matter.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(0x1f)
		b.WriteString(l.Value)
		b.WriteByte(0x1e)
	}
	return b.String()
}

// sortedLabels returns a name-sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// getFamily finds or creates a family, enforcing kind (and, for
// histograms, bound) consistency. Caller must hold r.mu.
func (r *Registry) getFamily(name, help string, kind Kind, bounds []float64) *family {
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic("obs: family " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
	}
	if kind == KindHistogram && len(f.bounds) != len(bounds) {
		panic("obs: histogram family " + name + " re-registered with different buckets")
	}
	return f
}

// getSeries finds or creates a series within f. Caller must hold
// r.mu. Returns the series and whether it already existed.
func (f *family) getSeries(labels []Label) (*series, bool) {
	ls := sortedLabels(labels)
	key := labelKey(ls)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls}
		f.series[key] = s
	}
	return s, ok
}

// Counter registers (or finds) a counter series. A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.getFamily(name, help, KindCounter, nil).getSeries(labels)
	if !ok {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or finds) a gauge series. A nil registry returns
// a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.getFamily(name, help, KindGauge, nil).getSeries(labels)
	if !ok {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or finds) a histogram series with the given
// ascending upper bounds (+Inf implicit). A nil registry returns a
// nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.getFamily(name, help, KindHistogram, bounds).getSeries(labels)
	if !ok {
		s.hist = &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s.hist
}

// CounterFunc registers a counter series whose value is read from fn
// at snapshot time — for components that already maintain their own
// atomic counters (edge caches). fn must be safe to call
// concurrently with the run. The first registration for a given
// (name, labels) wins; later ones are ignored.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.getFamily(name, help, KindCounter, nil).getSeries(labels)
	if !ok {
		s.counterFn = fn
	}
}

// GaugeFunc is CounterFunc for float-valued, non-monotonic readings.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.getFamily(name, help, KindGauge, nil).getSeries(labels)
	if !ok {
		s.gaugeFn = fn
	}
}

// Stage registers (or finds) a stage timer: one series of the shared
// StageFamily duration histogram labelled stage=name plus any extra
// labels. A nil registry returns a nil (no-op) stage.
func (r *Registry) Stage(stage string, labels ...Label) *Stage {
	if r == nil {
		return nil
	}
	ls := make([]Label, 0, len(labels)+1)
	ls = append(ls, Label{Name: "stage", Value: stage})
	ls = append(ls, labels...)
	return &Stage{h: r.Histogram(StageFamily, "Wall-clock duration of pipeline stages.", DurationBuckets, ls...)}
}
