package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dtmsvs"
	"dtmsvs/internal/checkpoint"
)

// harness counts what one run attempted and what failed: every Step,
// Checkpoint, Resume*, Close and read-back call, plus every
// verification check.
type harness struct {
	attempted int
	failed    int
	tr        *tracer     // nil in the end-to-end pass
	cal       *calibrator // nil in the traced pass
	dir       string      // scratch directory for trace and checkpoint files
}

// op counts one call into the program and reports whether it succeeded.
func (h *harness) op(err error, what string) bool {
	h.attempted++
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", what, err)
	}
	return err == nil
}

// check counts one verification of the program's output.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: "+format+"\n", args...)
	}
}

// repOpts selects what one repetition records beyond the end-to-end
// numbers.
type repOpts struct {
	rep int
	// reg, when set, is mounted with WithMetrics, the sink is wrapped
	// in the timing decorator and TotalAlloc is read round every Step:
	// the traced pass.
	reg *dtmsvs.MetricsRegistry
	// stopAfter > 0 closes the session after that many intervals and
	// skips the read-back and resume checks (the untraced companion of
	// the traced pass).
	stopAfter int
}

// usage is what a window of the run cost the process.
type usage struct {
	wallS      float64
	cpuS       float64 // user+sys
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
}

var processStart = time.Now()

// snapshot reads the process's counters; usage is the difference of two.
func snapshot() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpuS, _ := rusage()
	return usage{time.Since(processStart).Seconds(), cpuS, m.TotalAlloc, m.Mallocs, m.NumGC}
}

func (u usage) minus(o usage) usage {
	return usage{u.wallS - o.wallS, u.cpuS - o.cpuS, u.allocBytes - o.allocBytes, u.mallocs - o.mallocs, u.numGC - o.numGC}
}

// repResult is what one repetition measured.
type repResult struct {
	openS       float64
	prologueS   float64
	firstStepMs float64
	stepMs      []float64 // every Step after the first
	stepAllocKB []float64 // traced pass only, every Step
	ckptMs      []float64
	ckptBytes   int64     // size of the checkpoint taken at ckptAt
	resumeS     []float64 // Resume* call until the first resumed Step returned
	decodeMs    []float64 // the Resume* call alone
	closeMs     float64
	readS       float64
	// window is the Open* call to Close (and the sink's close)
	// returned, less the harness's own checkpoint samples.
	window     usage
	records    [][]dtmsvs.TraceRecord // as the Steps reported, by interval
	nRecords   int
	traceBytes int64
	sha        string
	radio      float64
	compute    float64
	cacheHit   float64
	sink       *timedSink
}

// rusage is the process's user+sys CPU seconds so far and its high-water
// resident set in MB (Linux reports ru_maxrss in KB).
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// timedSink is the decorator the traced pass wraps round the sink it
// hands the session: the sink layer's busy time and record count.
type timedSink struct {
	inner   dtmsvs.TraceSink
	writeNs int64
	flushNs int64
	records int
}

func (t *timedSink) WriteRecord(r dtmsvs.TraceRecord) error {
	t0 := time.Now()
	err := t.inner.WriteRecord(r)
	t.writeNs += int64(time.Since(t0))
	t.records++
	return err
}

func (t *timedSink) Flush() error {
	t0 := time.Now()
	err := t.inner.Flush()
	t.flushNs += int64(time.Since(t0))
	return err
}

// newSink builds the workload's sink over f: NDJSON for a durable
// workload (a resumed session appends to the same text file), the
// binary columnar format otherwise. finish completes the container.
func (w workload) newSink(f io.Writer) (sink dtmsvs.TraceSink, finish func() error, err error) {
	if w.durable {
		return dtmsvs.NewNDJSONSink(f), func() error { return nil }, nil
	}
	bs, err := dtmsvs.NewBinarySink(f)
	if err != nil {
		return nil, nil, err
	}
	return bs, bs.Close, nil
}

// cacheHitRate reads the edge cache hit rate off a finished session.
func cacheHitRate(s dtmsvs.Session) float64 {
	switch t := s.(type) {
	case *dtmsvs.SimSession:
		return t.Trace().CacheHitRate
	case *dtmsvs.ClusterSession:
		return t.Trace().CacheHitRate
	case *dtmsvs.DistSession:
		return t.Trace().CacheHitRate
	}
	return 0
}

func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	hash := sha256.New()
	n, err := io.Copy(hash, f)
	return hex.EncodeToString(hash.Sum(nil)), n, err
}

// timed runs fn inside a span and returns its wall time in ms; a
// failure is counted and wrapped with the span name.
func (h *harness) timed(name string, fn func() error) (float64, error) {
	sp := h.tr.begin(name)
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0)) / 1e6
	h.tr.end(sp)
	if !h.op(err, name) {
		return ms, fmt.Errorf("%s: %w", name, err)
	}
	return ms, nil
}

// runRep runs one repetition of the workload: closed loop, one client,
// the next Step issued when the previous one returns. An error means a
// call into the program failed (already counted) and the run cannot go
// on.
func runRep(h *harness, w workload, cfg dtmsvs.ClusterConfig, o repOpts) (r repResult, err error) {
	ctx := context.Background()
	ext := "bin"
	if w.durable {
		ext = "ndjson"
	}
	tracePath := filepath.Join(h.dir, fmt.Sprintf("trace-%d.%s", o.rep, ext))
	ckptPath := filepath.Join(h.dir, "session.ckpt")
	f, err := os.Create(tracePath)
	if err != nil {
		return r, err
	}
	defer os.Remove(tracePath)
	defer f.Close()

	sink, finishSink, err := w.newSink(f)
	if err != nil {
		return r, err
	}
	var opts []dtmsvs.SessionOption
	if o.reg != nil {
		r.sink = &timedSink{inner: sink}
		sink = r.sink
		opts = append(opts, dtmsvs.WithMetrics(o.reg))
	}

	if h.tr != nil {
		h.tr.rep = o.rep
	}
	repSpan := h.tr.begin("rep")
	h.cal.tick()
	begin, calBegin := snapshot(), h.cal.spentS()
	var excluded usage

	var s dtmsvs.Session
	ms, err := h.timed("open", func() (err error) {
		s, err = w.open(cfg, nil, append(opts, dtmsvs.WithSink(sink))...)
		return err
	})
	if err != nil {
		return r, err
	}
	r.openS = ms / 1000
	// On an early return, close whichever session is current (the mid-run
	// resume reassigns s, to nil when it fails); after the explicit Close
	// below this one only returns ErrSessionClosed.
	defer func() {
		if s != nil {
			s.Close()
		}
	}()

	var acc dtmsvs.AccuracyTracker
	var mem runtime.MemStats
	ckptAt := w.ckptAt()
	var ckpt bytes.Buffer
	var resumeMs float64 // of a mid-run resume whose first Step is still to come
	for !s.Done() && (o.stopAfter == 0 || s.Interval() < o.stopAfter) {
		want := s.Interval()
		h.cal.tick()
		var alloc0 uint64
		if o.reg != nil {
			runtime.ReadMemStats(&mem)
			alloc0 = mem.TotalAlloc
		}
		var rep dtmsvs.IntervalReport
		ms, err := h.timed("step", func() (err error) {
			rep, err = s.Step(ctx)
			return err
		})
		if err != nil {
			return r, err
		}
		if o.reg != nil {
			runtime.ReadMemStats(&mem)
			r.stepAllocKB = append(r.stepAllocKB, float64(mem.TotalAlloc-alloc0)/1024)
		}
		h.check(rep.Interval == want, "step reported interval %d, want %d", rep.Interval, want)
		if resumeMs > 0 {
			r.decodeMs = append(r.decodeMs, resumeMs)
			r.resumeS = append(r.resumeS, (resumeMs+ms)/1000)
			resumeMs = 0
		}
		acc.Observe(rep)
		r.records = append(r.records, rep.Records)
		if want == 0 {
			r.firstStepMs = ms
			r.prologueS = rep.PrologueDuration.Seconds()
		} else {
			r.stepMs = append(r.stepMs, ms)
		}

		switch {
		case w.durable:
			h.cal.tick()
			ms, err := h.timed("checkpoint", func() error { return checkpoint.WriteFile(ckptPath, s.Checkpoint) })
			if err != nil {
				return r, err
			}
			r.ckptMs = append(r.ckptMs, ms)
			if s.Interval() != ckptAt {
				break
			}
			// Kill-and-resume: drop the session, continue from the file
			// into the same trace file.
			if _, err := h.timed("close", s.Close); err != nil {
				return r, err
			}
			ck, err := os.Open(ckptPath)
			if err != nil {
				return r, err
			}
			if st, err := ck.Stat(); err == nil {
				r.ckptBytes = st.Size()
			}
			sink, _, _ = w.newSink(f)
			if r.sink != nil {
				r.sink.inner = sink
				sink = r.sink
			}
			resumeMs, err = h.timed("resume", func() (err error) {
				s, err = w.open(cfg, ck, append(opts, dtmsvs.WithSink(sink))...)
				return err
			})
			ck.Close()
			if err != nil {
				return r, err
			}
			h.check(s.Interval() == ckptAt, "resumed at interval %d, want %d", s.Interval(), ckptAt)
		case s.Interval() == ckptAt:
			before, calBefore := snapshot(), h.cal.spentS()
			for i := 0; i < w.ckptSamples; i++ {
				h.cal.tick()
				ckpt.Reset()
				runtime.GC() // every sample starts from the same heap state
				ms, err := h.timed("checkpoint", func() error { return s.Checkpoint(&ckpt) })
				if err != nil {
					return r, err
				}
				r.ckptMs = append(r.ckptMs, ms)
			}
			r.ckptBytes = int64(ckpt.Len())
			excluded = snapshot().minus(before)
			excluded.wallS -= h.cal.spentS() - calBefore // taken out once, below
		}
	}
	if s.Done() && o.reg != nil {
		r.cacheHit = cacheHitRate(s)
	}

	r.closeMs, err = h.timed("close", func() error {
		if err := s.Close(); err != nil {
			return err
		}
		if err := finishSink(); err != nil {
			return err
		}
		return f.Close()
	})
	r.window = snapshot().minus(begin).minus(excluded)
	r.window.wallS -= h.cal.spentS() - calBegin
	if err != nil {
		return r, err
	}
	if o.stopAfter > 0 {
		h.tr.end(repSpan)
		return r, nil
	}

	// Everything below is verification, outside the throughput window.
	h.check(len(r.records) == cfg.Sim.NumIntervals, "%d intervals stepped, want %d", len(r.records), cfg.Sim.NumIntervals)
	if r.radio, err = acc.RadioAccuracy(); !h.op(err, "radio accuracy") {
		return r, err
	}
	if r.compute, err = acc.ComputeAccuracy(); !h.op(err, "compute accuracy") {
		return r, err
	}

	var back []dtmsvs.TraceRecord
	if ms, err = h.timed("read_trace", func() (err error) {
		back, err = dtmsvs.ReadTraceFile(tracePath)
		return err
	}); err != nil {
		return r, err
	}
	r.readS = ms / 1000
	flat := slices.Concat(r.records...)
	r.nRecords = len(flat)
	h.check(slices.Equal(back, flat), "trace read back (%d records) differs from the %d records the Steps reported", len(back), len(flat))
	if r.sha, r.traceBytes, err = fileSHA256(tracePath); err != nil {
		return r, err
	}

	// Resume from the mid-run checkpoint — the decode path of every
	// engine — and step on; the first time, check two intervals against
	// the run.
	for i := 0; !w.durable && i < w.resumeSamples; i++ {
		h.cal.tick()
		runtime.GC()
		var s2 dtmsvs.Session
		ms, err := h.timed("resume", func() (err error) {
			s2, err = w.open(cfg, bytes.NewReader(ckpt.Bytes()), dtmsvs.WithSink(dtmsvs.DiscardSink{}))
			return err
		})
		if err != nil {
			return r, err
		}
		h.check(s2.Interval() == ckptAt, "resumed at interval %d, want %d", s2.Interval(), ckptAt)
		steps := 1
		if i == 0 {
			steps = 2
		}
		for n := 0; n < steps && !s2.Done(); n++ {
			at := s2.Interval()
			var rep dtmsvs.IntervalReport
			stepMs, err := h.timed("resumed_step", func() (err error) {
				rep, err = s2.Step(ctx)
				return err
			})
			if err != nil {
				s2.Close()
				return r, err
			}
			if n == 0 {
				r.decodeMs = append(r.decodeMs, ms)
				r.resumeS = append(r.resumeS, (ms+stepMs)/1000)
			}
			h.check(at < len(r.records) && slices.Equal(rep.Records, r.records[at]), "interval %d differs after resume", at)
		}
		if !h.op(s2.Close(), "close resumed") {
			return r, fmt.Errorf("close of a resumed session failed")
		}
	}
	h.tr.end(repSpan)
	return r, nil
}

// setupBatch is how long one timed batch of Open* calls should take: a
// call of microseconds (the distributed engine spawns its workers in the
// first Step) is timed a thousand at a time, clear of the clock's own
// cost, and a call of milliseconds one at a time.
const (
	setupBatch    = 2 * time.Millisecond
	maxSetupBatch = 1000
)

// sampleSetup times Open* to return, for budget: set-up several times in
// a run. Sessions are opened a batch at a time, the batch timed as a
// whole, and closed unstepped outside the timing; it returns the seconds
// per call of each batch, three batches at least.
func sampleSetup(h *harness, w workload, cfg dtmsvs.ClusterConfig, budget time.Duration) ([]float64, error) {
	var out []float64
	batch := 1
	sessions := make([]dtmsvs.Session, 0, maxSetupBatch)
	begin := time.Now()
	for len(out) < 3 || time.Since(begin) < budget {
		var err error
		sessions = sessions[:0]
		h.cal.tick()
		t0 := time.Now()
		for len(sessions) < batch && err == nil {
			var s dtmsvs.Session
			if s, err = w.open(cfg, nil, dtmsvs.WithSink(dtmsvs.DiscardSink{})); err == nil {
				sessions = append(sessions, s)
			}
		}
		d := time.Since(t0)
		for _, s := range sessions {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			h.op(err, "open and close unstepped")
			return out, err
		}
		if d < setupBatch/2 && batch < maxSetupBatch {
			// Too short to time: size the batch up; this one is no sample.
			batch = min(maxSetupBatch, batch*int(setupBatch/max(d, time.Microsecond)))
			continue
		}
		out = append(out, d.Seconds()/float64(batch))
	}
	h.op(nil, "open and close unstepped")
	return out, nil
}

// reference runs the scenario uninterrupted on the single-process
// engine, untimed, and returns its records by interval: what
// dist_boundary and durable_resume must reproduce.
func reference(h *harness, w workload, cfg dtmsvs.ClusterConfig) ([][]dtmsvs.TraceRecord, error) {
	ref := w
	ref.engine = engCluster
	s, err := ref.open(cfg, nil, dtmsvs.WithSink(dtmsvs.DiscardSink{}))
	if !h.op(err, "open reference") {
		return nil, err
	}
	defer s.Close()
	var out [][]dtmsvs.TraceRecord
	for !s.Done() {
		rep, err := s.Step(context.Background())
		if !h.op(err, "reference step") {
			return nil, err
		}
		out = append(out, rep.Records)
	}
	return out, nil
}

// reading is one metric of one run.
type reading struct {
	name    string
	value   float64
	unit    string
	samples int    // sample count behind a median or percentile; 0 = a single value
	note    string // e.g. the percentile interval_ms_hi used
}

// repSeed is the seed of repetition i's inputs: the run's own for the
// first, a fixed stride on for each further one. The repetitions of one
// run are different draws of the scenario, so that their median depends
// less on the seed than any one of them does.
func repSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// endToEnd runs the repetitions the workload makes in seconds — a fixed
// amount of work, cut to take about that long — and returns the
// end-to-end metrics, with the first repetition's trace digest.
func endToEnd(h *harness, w workload, seed int64, seconds float64) ([]reading, string, error) {
	cfg := w.config(seed)
	setup, err := sampleSetup(h, w, cfg, time.Duration(seconds/50*float64(time.Second)))
	if err != nil {
		return nil, "", err
	}

	var reps []repResult
	for i := 0; i < w.repetitions(seconds); i++ {
		r, err := runRep(h, w, w.config(repSeed(seed, i)), repOpts{rep: i})
		if err != nil {
			return nil, "", err
		}
		h.check(r.radio >= w.radioFloor, "radio accuracy %.4f below %.2f", r.radio, w.radioFloor)
		reps = append(reps, r)
	}
	_, peak := rusage() // before the reference below adds to it

	if w.engine == engDist || w.durable {
		ref, err := reference(h, w, cfg)
		if err != nil {
			return nil, "", err
		}
		h.check(len(ref) == len(reps[0].records), "reference ran %d intervals, workload %d", len(ref), len(reps[0].records))
		for i := 0; i < len(ref) && i < len(reps[0].records); i++ {
			h.check(slices.Equal(ref[i], reps[0].records[i]), "interval %d differs from the uninterrupted single-process reference", i)
		}
	}

	ui := float64(w.users * w.intervals)
	var prologue, steps, ckpts, resume, thr, eff, alloc, ckptBytes, traceBytes, radio, compute []float64
	for _, r := range reps {
		setup = append(setup, r.openS)
		prologue = append(prologue, r.prologueS)
		steps = append(steps, r.stepMs...)
		ckpts = append(ckpts, r.ckptMs...)
		resume = append(resume, r.resumeS...)
		thr = append(thr, ui/r.window.wallS)
		eff = append(eff, ui/r.window.cpuS)
		alloc = append(alloc, float64(r.window.allocBytes)/1024/ui)
		ckptBytes = append(ckptBytes, float64(r.ckptBytes)/float64(w.users))
		traceBytes = append(traceBytes, float64(r.traceBytes)/float64(r.nRecords))
		radio = append(radio, r.radio*100)
		compute = append(compute, r.compute*100)
	}
	if err := h.cal.failure(); !h.op(err, "calibration") {
		return nil, "", err
	}
	// Timings are reported at reference speed: at the calibrator's reading
	// of how fast the box ran during this run.
	speed := h.cal.speed()
	hiP, hi := hiPercentile(steps)
	out := []reading{
		{"setup_s", median(setup) * speed, "s", len(setup), ""},
		{"prologue_s", median(prologue) * speed, "s", len(prologue), ""},
		{"interval_ms_p50", median(steps) * speed, "ms", len(steps), ""},
		{"interval_ms_hi", hi * speed, "ms", len(steps), fmt.Sprintf("p%d", hiP)},
		{"throughput_uips", median(thr) / speed, "ui/s", len(thr), ""},
		{"core_efficiency_uipcs", median(eff) / speed, "ui/core-s", len(eff), ""},
		{"alloc_kb_per_ui", median(alloc), "KB/ui", len(alloc), ""},
		{"peak_rss_mb", peak, "MB", 0, ""},
		{"checkpoint_ms_p50", median(ckpts) * speed, "ms", len(ckpts), ""},
		{"checkpoint_bytes_per_user", median(ckptBytes), "B/user", len(ckptBytes), ""},
		{"resume_s", median(resume) * speed, "s", len(resume), ""},
		{"trace_bytes_per_record", median(traceBytes), "B/record", len(traceBytes), ""},
		{"radio_accuracy_pct", median(radio), "%", len(radio), ""},
		{"compute_accuracy_pct", median(compute), "%", len(compute), ""},
	}
	return out, reps[0].sha, nil
}
