// Session-level observability. WithMetrics mounts an obs.Registry on
// a session at Open time: the engine registers its stage timers and
// component counters (per-cell in a cluster run), and the session
// itself tracks the step span, sink write/flush spans and errors,
// and checkpoint encode and restore cost. The registry is read-side
// safe for live HTTP export (obs.Serve / obs.Handler) while the
// session steps.
//
// Metrics never perturb the run: all instrumentation is out-of-band
// wall-clock and counter state, so traces are bit-identical with a
// registry mounted or not, and the steady-state Step path stays
// allocation-free.
package dtmsvs

import (
	"io"

	"dtmsvs/internal/obs"
)

// MetricsRegistry is the registry type accepted by WithMetrics,
// re-exported so callers outside the module tree can hold one
// without importing internal packages.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry to mount with
// WithMetrics. Export it live with obs.Serve (see cmd/dtsim
// -metrics-addr) or snapshot it with its WriteJSON/WritePrometheus
// methods.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// WithMetrics mounts reg on the session: engine stage timers
// (prologue and per-interval phases, per-cell in cluster runs), edge
// cache counters, session step spans, sink write/flush spans and
// error counter, checkpoint size and encode duration, and the restore
// duration of a resumed session (a distributed resume times only the
// supervisor's read; its workers restore on their own). Cluster runs
// with failure injection additionally expose the failure-model
// catalog: dtmsvs_cells_down, dtmsvs_evacuated_twins_total,
// dtmsvs_degraded_intervals_total, dtmsvs_cell_failures_total and
// dtmsvs_cell_revivals_total, plus the interval/evacuation stage
// timer. A nil reg leaves the session
// un-instrumented; the hot path then pays only nil checks.
func WithMetrics(reg *MetricsRegistry) SessionOption {
	return func(o *sessionOptions) { o.metrics = reg }
}

// sessionMetrics holds the session layer's own handles. The zero
// value (no registry) is fully inert.
type sessionMetrics struct {
	step        *obs.Stage
	sinkWrite   *obs.Stage
	sinkFlush   *obs.Stage
	ckptEncode  *obs.Stage
	ckptRestore *obs.Stage

	steps      *obs.Counter
	sinkErrors *obs.Counter
	ckpts      *obs.Counter
	ckptBytes  *obs.Gauge
}

func newSessionMetrics(reg *obs.Registry) sessionMetrics {
	if reg == nil {
		return sessionMetrics{}
	}
	return sessionMetrics{
		step:        reg.Stage("step"),
		sinkWrite:   reg.Stage("interval/sink_write"),
		sinkFlush:   reg.Stage("interval/sink_flush"),
		ckptEncode:  reg.Stage("checkpoint/encode"),
		ckptRestore: reg.Stage("checkpoint/restore"),
		steps: reg.Counter("dtmsvs_steps_total",
			"Scheduling intervals completed by the session."),
		sinkErrors: reg.Counter("dtmsvs_sink_errors_total",
			"Sink WriteRecord or Flush failures; each one failed the session."),
		ckpts: reg.Counter("dtmsvs_checkpoints_total",
			"Checkpoints encoded by the session."),
		ckptBytes: reg.Gauge("dtmsvs_checkpoint_bytes",
			"Size of the most recent checkpoint in bytes."),
	}
}

// countingWriter counts the bytes that pass through to w, so the
// checkpoint path can report encoded size without buffering.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
