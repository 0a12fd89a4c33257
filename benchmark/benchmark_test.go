package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// spec mirrors BENCHMARK.json.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecLimits holds BENCHMARK.json to the contract's limits.
func TestSpecLimits(t *testing.T) {
	spec := readSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, not what the program runs", i, w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestMain lets the test binary be the calibrator's child, as main does.
func TestMain(m *testing.M) {
	if os.Getenv(calibrateEnv) != "" {
		calibrateChild()
		return
	}
	os.Exit(m.Run())
}

// TestCalibrator runs the calibration child for a few bursts.
func TestCalibrator(t *testing.T) {
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	c.tick() // too soon after the warm-up burst
	if len(c.burstMs) != 0 {
		t.Errorf("tick ran a burst %v after the last", time.Since(c.last))
	}
	for i := 0; i < 3; i++ {
		c.burst()
	}
	c.stop()
	if c.failure() != nil || len(c.burstMs) != 3 || c.spentS() <= 0 {
		t.Fatalf("bursts %v, spent %v s, error %v", c.burstMs, c.spentS(), c.failure())
	}
	if got, want := c.speed(), refBurstMs/median(c.burstMs); got != want || got <= 0 {
		t.Errorf("speed %v, want %v", got, want)
	}
	c.burst()
	if c.failure() == nil {
		t.Error("a burst after stop did not fail")
	}

	var off *calibrator // the traced pass: no calibrator, raw timings
	off.tick()
	if off.speed() != 1 || off.spentS() != 0 || off.failure() != nil {
		t.Errorf("nil calibrator: speed %v, spent %v, error %v", off.speed(), off.spentS(), off.failure())
	}
}

// toy shrinks a workload to smoke-test size; the code paths stay. Eighty
// users predict worse than thousands, so the accuracy floor drops too.
func toy(w workload) workload {
	// The smoke runs -seconds 1, a 25th of the nominal run and of its
	// repetitions: two.
	w.users, w.cells, w.intervals, w.reps, w.radioFloor = 80, 2, 4, 2*nominalSeconds, 0.5
	if !w.durable {
		w.ckptSamples, w.resumeSamples = 2, 2
	}
	return w
}

// checkReadings asserts that a pass emitted every catalogue metric
// exactly once, with its unit and a finite value.
func checkReadings(t *testing.T, pass string, got []reading, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, r := range got {
		if _, dup := units[r.name]; dup {
			t.Errorf("%s: %s emitted twice", pass, r.name)
		}
		units[r.name] = r.unit
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			t.Errorf("%s: %s = %v", pass, r.name, r.value)
		}
	}
	for _, m := range want {
		if unit, ok := units[m.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", pass, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", pass, m.Name, unit, m.Unit)
		}
		delete(units, m.Name)
	}
	for name := range units {
		t.Errorf("%s: %s emitted but not in BENCHMARK.json", pass, name)
	}
}

// TestSmoke runs both passes of all four workloads at toy size through
// the code the real sizes use, and holds what they emit to
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	cal, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.stop()
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			h := &harness{dir: t.TempDir(), cal: cal}
			got, sha, err := endToEnd(h, w, smokeSeed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if h.failed != 0 || h.attempted == 0 || len(sha) != 64 {
				t.Errorf("end to end: %d of %d failed, digest %q", h.failed, h.attempted, sha)
			}
			checkReadings(t, "end to end", got, spec.EndToEnd)
			for _, r := range got {
				if r.value == 0 {
					t.Errorf("end-to-end metric %s is 0", r.name)
				}
			}

			h = &harness{dir: t.TempDir(), tr: newTracer()}
			got, _, err = tracedPass(h, w, smokeSeed)
			if err != nil {
				t.Fatal(err)
			}
			if h.failed != 0 {
				t.Errorf("traced: %d of %d failed", h.failed, h.attempted)
			}
			checkReadings(t, "traced", got, spec.PerLayer)
			if len(h.tr.open) != 0 {
				t.Errorf("%d spans left open", len(h.tr.open))
			}
		})
	}
}

// TestResultLine checks the shape of the last line a run prints.
func TestResultLine(t *testing.T) {
	line, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}

func TestHiPercentile(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		v    float64
	}{
		{7, 50, 4},       // too few for any: the p50 floor, as a median
		{28, 50, 14.5},   // p75 would leave 7 beyond
		{39, 50, 20},     // 9.75 beyond p75
		{40, 75, 30},     // exactly 10 beyond p75
		{95, 75, 72},     // p90 would leave 9.5
		{100, 90, 90},    // exactly 10 beyond p90
		{190, 90, 171},   // p95 would leave 9.5
		{200, 95, 190},   // exactly 10 beyond p95
		{1000, 99, 990},  // exactly 10 beyond p99
		{5000, 99, 4950}, // p99 is the top of the ladder
	} {
		p, v := hiPercentile(series(c.n))
		if p != c.p || v != c.v {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", c.n, p, v, c.p, c.v)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", StartNs: 0, EndNs: 100e6},
		{ID: 1, Parent: 0, Name: "step", StartNs: 10e6, EndNs: 40e6},
		{ID: 2, Parent: 1, Name: "inner", StartNs: 15e6, EndNs: 20e6},
		{ID: 3, Parent: 0, Name: "step", StartNs: 50e6, EndNs: 90e6},
	}
	for id, want := range []float64{30, 25, 5, 40} {
		if got := selfMs(spans, id); got != want {
			t.Errorf("self time of span %d = %v ms, want %v", id, got, want)
		}
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || len(tr.open) != 0 {
		t.Errorf("nesting: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("nothing")) // the end-to-end pass: no tracer, no spans
}

// TestQuartiles pins the acceptance spread to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{3, 1, 2})
	if want := [3]float64{1, 2, 3}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v + by
		}
		return b
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", a, shift(0), true, "ok"},
		{"slower within bound", a, shift(5), true, "ok"},
		{"slower beyond bound", a, shift(20), true, "regressed"},
		{"lower throughput", a, shift(-20), false, "regressed"},
		{"higher throughput", a, shift(20), false, "ok"},
		{"noise wider than bound", noisy, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, shift(-40), true, "ok"},
		{"noisy and every run worse", noisy, shift(50), true, "regressed"},
	} {
		if _, _, got := verdict(c.a, c.b, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

const smokeSeed = 42
