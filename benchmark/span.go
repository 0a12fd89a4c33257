package main

import "time"

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends and are written to -out; Parent is the ID
// of the enclosing span (-1 for a root) and Rep groups the spans of
// one repetition.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer records spans. A nil tracer records nothing, which is how the
// end-to-end pass runs.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// named returns the durations in ms of every span with the name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMs is a span's duration minus the time its direct children cover.
func selfMs(spans []span, id int) float64 {
	self := spans[id].ms()
	for _, s := range spans {
		if s.Parent == id {
			self -= s.ms()
		}
	}
	return self
}
