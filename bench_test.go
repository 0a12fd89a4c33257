package dtmsvs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/cnn"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/kmeans"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/nn"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

// benchConfig is the scenario all figure/table benches share: small
// enough for a bench iteration, large enough to exhibit the paper's
// shapes.
func benchConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		NumUsers:         60,
		NumBS:            4,
		NumIntervals:     12,
		CompressorEpochs: 8,
		AgentEpisodes:    80,
		PrefetchDepth:    -1, // paper's delivery model has no prefetch
		Parallelism:      0,  // all cores; the trace is identical at any setting
	}
}

// BenchmarkFig3a regenerates Fig. 3(a): the cumulative swiping
// probability distribution of the News-dominant multicast group. The
// reported metrics are the expected watch fractions of News and Game
// (News must be highest, Game lowest).
func BenchmarkFig3a(b *testing.B) {
	var last *Fig3aResult
	for i := 0; i < b.N; i++ {
		res, err := RunFig3a(context.Background(), benchConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.ExpectedWatchFraction[News.Index()], "news-watch-frac")
		b.ReportMetric(last.ExpectedWatchFraction[Game.Index()], "game-watch-frac")
	}
}

// BenchmarkFig3b regenerates Fig. 3(b): predicted vs actual radio
// resource demand. The reported metric is the prediction accuracy;
// the paper reports 95.04 % on its scenario.
func BenchmarkFig3b(b *testing.B) {
	var last *Fig3bResult
	for i := 0; i < b.N; i++ {
		res, err := RunFig3b(context.Background(), benchConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Accuracy*100, "group-accuracy-%")
		b.ReportMetric(last.OverallAccuracy*100, "overall-accuracy-%")
	}
}

// BenchmarkComputeDemand regenerates experiment E1: computing
// resource demand prediction (volume accuracy).
func BenchmarkComputeDemand(b *testing.B) {
	var last *ComputeDemandResult
	for i := 0; i < b.N; i++ {
		res, err := RunComputeDemand(context.Background(), benchConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.VolumeAccuracy*100, "compute-accuracy-%")
	}
}

// BenchmarkGroupingAblation regenerates experiment E2: DDQN-selected
// K vs fixed-K vs raw features. Reported metric: accuracy advantage
// of the full scheme over the worst arm (percentage points).
func BenchmarkGroupingAblation(b *testing.B) {
	variants := []GroupingVariant{
		{Name: "ddqn+cnn", UseCNN: true},
		{Name: "fixed-k8", FixedK: 8, UseCNN: true},
	}
	var rows []GroupingAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunGroupingAblation(context.Background(), benchConfig(42), variants)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].RadioAccuracy*100, "ddqn-accuracy-%")
		b.ReportMetric(rows[1].RadioAccuracy*100, "fixed8-accuracy-%")
	}
}

// BenchmarkAccuracyVsUsers regenerates experiment E3 at two
// population sizes.
func BenchmarkAccuracyVsUsers(b *testing.B) {
	var rows []UsersSweepRow
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(42)
		cfg.NumIntervals = 8
		var err error
		rows, err = RunAccuracyVsUsers(context.Background(), cfg, []int{40, 120})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].RadioAccuracy*100, "n40-accuracy-%")
		b.ReportMetric(rows[1].RadioAccuracy*100, "n120-accuracy-%")
	}
}

// BenchmarkPredictorBaselines regenerates experiment E4: the DT
// scheme against last-value / moving-average / EWMA forecasters.
func BenchmarkPredictorBaselines(b *testing.B) {
	var rows []PredictorRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunPredictorBaselines(context.Background(), benchConfig(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Accuracy*100, r.Name+"-%")
	}
}

// BenchmarkReservation regenerates experiment E7: radio resource
// reservation with 10 % headroom. Reported metrics: waste of the
// prediction-driven policy vs static peak provisioning.
func BenchmarkReservation(b *testing.B) {
	var rows []ReservationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunReservation(context.Background(), benchConfig(42), 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[0].Waste, "prediction-waste")
		b.ReportMetric(rows[1].Waste, "peak-waste")
		b.ReportMetric(rows[0].ViolationRate*100, "prediction-violations-%")
	}
}

// BenchmarkWasteVsPrefetch regenerates experiment E8: wasted traffic
// share at shallow vs deep prefetch. Reported metrics: waste share at
// depth 1 and depth 8 (deeper prefetch → more waste).
func BenchmarkWasteVsPrefetch(b *testing.B) {
	var rows []WasteRow
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(42)
		cfg.NumIntervals = 8
		var err error
		rows, err = RunWasteVsPrefetch(context.Background(), cfg, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].WasteShare*100, "depth1-waste-%")
		b.ReportMetric(rows[1].WasteShare*100, "depth8-waste-%")
	}
}

// BenchmarkQoEVsBudget regenerates experiment E9: experienced quality
// under an unlimited vs a tight shared radio budget.
func BenchmarkQoEVsBudget(b *testing.B) {
	var rows []QoEBudgetRow
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(42)
		cfg.NumIntervals = 8
		var err error
		rows, err = RunQoEVsBudget(context.Background(), cfg, []int{0, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].MeanQoE, "unlimited-qoe")
		b.ReportMetric(rows[1].MeanQoE, "budget3-qoe")
	}
}

// BenchmarkAccuracyVsChurn regenerates experiment E10: prediction
// accuracy with and without user churn.
func BenchmarkAccuracyVsChurn(b *testing.B) {
	var rows []ChurnRow
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(42)
		cfg.NumIntervals = 8
		var err error
		rows, err = RunAccuracyVsChurn(context.Background(), cfg, []float64{0, 0.1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].RadioAccuracy*100, "nochurn-accuracy-%")
		b.ReportMetric(rows[1].RadioAccuracy*100, "churn10-accuracy-%")
	}
}

// BenchmarkCNNCompression regenerates experiment E5: reconstruction
// error of the 1D-CNN compressor at code dim 8 on synthetic UDT
// windows.
func BenchmarkCNNCompression(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mkWindows := func(n int) []vecmath.Vec {
		ws := make([]vecmath.Vec, n)
		for i := range ws {
			w := make(vecmath.Vec, 5*16)
			phase := float64(i%4) * math.Pi / 2
			for j := range w {
				w[j] = 0.6*math.Sin(float64(j)/3+phase) + 0.05*rng.NormFloat64()
			}
			ws[i] = w
		}
		return ws
	}
	windows := mkWindows(32)
	var lastLoss float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := cnn.New(cnn.Config{
			Channels: 5, Window: 16, Filters: 8, Kernel: 3, Pool: 2, CodeDim: 8,
		}, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		loss, err := comp.Fit(windows, 10, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		lastLoss = loss
	}
	b.ReportMetric(lastLoss, "recon-loss")
}

// BenchmarkCompressorFit measures the CNN fit of a monolithic engine's
// learning prologue: the windows of 2000 twins (5 channels × 16 steps)
// through the default compressor, capped at the engine's default 20
// epochs, at minibatch sizes 8 (the default) to 64. One op is one Fit
// on a freshly built compressor; building it is outside the timer, so
// allocs/op counts only the fit's grow-once scratch and Adam moments,
// a fixed number that a per-step allocation would multiply. Reported:
// ms per epoch, epochs run before the plateau stop, and the last
// epoch's loss.
func BenchmarkCompressorFit(b *testing.B) {
	twins := populationTwins(b, 2000)
	windows := make([]vecmath.Vec, len(twins))
	for i, tw := range twins {
		w, err := tw.FeatureWindow(16, 2000)
		if err != nil {
			b.Fatal(err)
		}
		windows[i] = w
	}
	for _, batch := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cfg := cnn.Config{
				Channels: udt.NumFeatureChannels, Window: 16,
				Filters: 8, Kernel: 3, Pool: 2, CodeDim: 8, Batch: batch,
			}
			var epochs int
			var loss float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				comp, err := cnn.New(cfg, rand.New(rand.NewSource(16)))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if loss, err = comp.Fit(windows, 20, rand.New(rand.NewSource(17))); err != nil {
					b.Fatal(err)
				}
				epochs += comp.Epochs()
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(epochs), "ms/epoch")
			b.ReportMetric(float64(epochs)/float64(b.N), "epochs")
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkEncodeBatch times the staged encode every construction
// runs: Builder.CodesInto over a 2000-user population with the
// engine's CNN defaults (8 filters of width 3, pool 2, code 8, batch
// 8), each compressor batch of feature windows staged in the builder
// and encoded into its rows of one code matrix, after a one-epoch
// TrainCompressor has grown the scratch as the engine's prologue does.
// Once the matrix has grown it allocates nothing, so allocs/op is 0; an
// allocation per window or per batch would show as a count.
func BenchmarkEncodeBatch(b *testing.B) {
	twins := populationTwins(b, 2000)
	builder, err := grouping.New(grouping.Config{
		WindowSteps: 16, PosScale: 2000, KMin: 2, KMax: 8, UseCNN: true,
	}, rand.New(rand.NewSource(16)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := builder.TrainCompressor(twins, 1); err != nil {
		b.Fatal(err)
	}
	var codes vecmath.Matrix
	if err := builder.CodesInto(&codes, twins); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := builder.CodesInto(&codes, twins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDQNTraining regenerates experiment E6: DDQN convergence
// on the K-selection MDP. Reported metric: mean reward of the last 20
// episodes (higher is better; compare against the exhaustive oracle
// reward reported alongside).
func BenchmarkDDQNTraining(b *testing.B) {
	mkTwins := benchTwins(b)
	var tail float64
	var oracle float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(4))
		builder, err := grouping.New(grouping.Config{
			WindowSteps: 16, PosScale: 2000, KMin: 2, KMax: 6, UseCNN: true,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := builder.TrainCompressor(mkTwins, 10); err != nil {
			b.Fatal(err)
		}
		rewards, err := builder.TrainAgent(mkTwins, 120)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rewards[len(rewards)-20:] {
			sum += r
		}
		tail = sum / 20
		_, oracle, err = builder.BestKExhaustive(mkTwins)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tail, "tail-reward")
	b.ReportMetric(oracle, "oracle-reward")
}

// BenchmarkMatMul compares the vecmath blocked kernel against the
// textbook triple loop on the minibatch-training GEMM shape
// (batch 32 × hidden 64 through a 64-wide dense layer). Both sweep
// the inner dimension in ascending order — the kernel's determinism
// contract — so their outputs are bit-identical; only the memory
// access pattern differs.
func BenchmarkMatMul(b *testing.B) {
	const m, k, n = 32, 64, 64
	rng := rand.New(rand.NewSource(9))
	a := vecmath.MustMatrix(m, k)
	w := vecmath.MustMatrix(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst := vecmath.MustMatrix(m, n)
	b.Run("tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := vecmath.MatMulInto(dst, a, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Interleaved in-binary A/B of the kernel dispatch: "generic"
	// forces the scalar AXPY micro-kernel, so tiled/generic is the
	// SIMD speedup on this machine (they are equal without AVX2).
	b.Run("generic", func(b *testing.B) {
		vecmath.ForceGeneric(true)
		defer vecmath.ForceGeneric(false)
		for i := 0; i < b.N; i++ {
			if err := vecmath.MatMulInto(dst, a, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < m; r++ {
				ar := a.Row(r)
				dr := dst.Row(r)
				for c := 0; c < n; c++ {
					var s float64
					for kk := 0; kk < k; kk++ {
						s += ar[kk] * w.At(kk, c)
					}
					dr[c] = s
				}
			}
		}
	})
}

// benchClusterConfig is the one-cell-per-station scenario the cluster benches
// share: large enough that the per-cell pipelines dominate, small
// enough for a bench iteration.
func benchClusterConfig(seed int64, workers int) ClusterConfig {
	return ClusterConfig{
		Sim: Config{
			Seed:             seed,
			NumUsers:         1200,
			NumBS:            8,
			NumIntervals:     4,
			TicksPerInterval: 10,
			WarmupIntervals:  1,
			CompressorEpochs: 2,
			AgentEpisodes:    8,
			ChurnPerInterval: 0.02,
			PrefetchDepth:    -1,
			Parallelism:      workers,
		},
	}
}

// BenchmarkCluster measures the one-cell-per-station multi-BS engine end to end —
// including the per-cell streaming phase, which the monolithic engine
// runs sequentially — at 1 worker and at all cores. The trace is
// bit-identical across the sub-benchmarks; on multicore hardware the
// wall-clock gap is the cell-level speedup. Reported metrics: twin
// handovers and radio prediction accuracy.
func BenchmarkCluster(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"w1", 1}, {"wall", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			var last *ClusterTrace
			for i := 0; i < b.N; i++ {
				last = mustClusterTrace(b, benchClusterConfig(42, bc.workers))
			}
			if last != nil {
				acc, err := last.RadioAccuracy()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(last.Handovers), "handovers")
				b.ReportMetric(acc*100, "radio-accuracy-%")
			}
		})
	}
}

// appendSink holds every record it is given, as a session with no
// sink does: the baseline BenchmarkTraceSink's streaming sinks are
// weighed against.
type appendSink struct{ records []TraceRecord }

func (a *appendSink) WriteRecord(r TraceRecord) error {
	a.records = append(a.records, r)
	return nil
}

func (a *appendSink) Flush() error { return nil }

// BenchmarkTraceSink measures what the streaming redesign buys at
// examples/city scale: the retained heap after delivering a
// city-sized record stream (12 intervals × ~4k group-cells ≈ 50k
// records, the shape a 50k-user cluster run emits) through
// whole-trace buffering — an appending sink that holds what a session
// with no sink retains — versus the streaming sinks (NDJSON, CSV, and
// the binary columnar format). The "retained-MB" metric is live heap
// attributable to the sink after a forced GC — the buffered sink
// holds every record, the streaming sinks hold only their encoder
// buffers. The streaming sub-benchmarks also report encode throughput
// (records/s) and output density (bytes/record); the Makefile's
// overhead gate holds bin at ≤0.2× ndjson's wall time (i.e. ≥5×
// faster) and the baseline pins bin's bytes/record at well under 0.4×
// of ndjson's.
func BenchmarkTraceSink(b *testing.B) {
	const records = 50_000
	mkRecord := func(i int) TraceRecord {
		return TraceRecord{
			BS: i % 16,
			GroupIntervalRecord: GroupIntervalRecord{
				Interval:     i / 4096,
				GroupID:      i % 7,
				Size:         40,
				PredictedRBs: float64(i%13) + 0.5,
				ActualRBs:    float64(i%13) + 0.25,
				ActualBits:   7e8,
			},
		}
	}
	heapAlloc := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	// mkSink builds a fresh sink over the counting writer each
	// iteration; closeSink (nil for sinks without Close) releases any
	// resources before the retained-heap sample.
	run := func(b *testing.B, mkSink func(*countingWriter) TraceSink, closeSink func(TraceSink) error) {
		var retained float64
		cw := countingWriter{w: io.Discard}
		for i := 0; i < b.N; i++ {
			cw.n = 0
			before := heapAlloc()
			sink := mkSink(&cw)
			for r := 0; r < records; r++ {
				if err := sink.WriteRecord(mkRecord(r)); err != nil {
					b.Fatal(err)
				}
				if r%4096 == 4095 { // interval boundary
					if err := sink.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := sink.Flush(); err != nil {
				b.Fatal(err)
			}
			if closeSink != nil {
				if err := closeSink(sink); err != nil {
					b.Fatal(err)
				}
			}
			retained = heapAlloc() - before
			runtime.KeepAlive(sink)
		}
		b.ReportMetric(retained/1e6, "retained-MB")
		if cw.n > 0 {
			b.ReportMetric(float64(cw.n)/records, "bytes/record")
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("buffered", func(b *testing.B) {
		run(b, func(*countingWriter) TraceSink { return &appendSink{} }, nil)
	})
	b.Run("ndjson", func(b *testing.B) {
		run(b, func(cw *countingWriter) TraceSink { return NewNDJSONSink(cw) }, nil)
	})
	b.Run("csv", func(b *testing.B) {
		run(b, func(cw *countingWriter) TraceSink { return NewCSVSink(cw) }, nil)
	})
	b.Run("bin", func(b *testing.B) {
		run(b, func(cw *countingWriter) TraceSink {
			s, err := NewBinarySink(cw)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}, func(s TraceSink) error { return s.(*BinarySink).Close() })
	})
}

// BenchmarkStepInstrumented measures the marginal cost of a mounted
// metrics registry on the steady-state Step path: "off" runs a bare
// session, "on" the same session with WithMetrics. The prologue
// (warm-up, training, group build) happens outside the timer; each
// iteration is one post-prologue interval. make bench-check holds the
// on/off pair within 2% wall and equal allocations via the
// bench_compare.py overhead gate.
func BenchmarkStepInstrumented(b *testing.B) {
	for _, bc := range []struct {
		name    string
		metrics bool
	}{{"off", false}, {"on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig(42)
			cfg.NumIntervals = b.N + 3
			opts := []SessionOption{WithSink(DiscardSink{})}
			if bc.metrics {
				opts = append(opts, WithMetrics(NewMetricsRegistry()))
			}
			s, err := Open(cfg, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Prologue plus two settling intervals outside the timer.
			for i := 0; i < 3; i++ {
				if _, serr := s.Step(context.Background()); serr != nil {
					b.Fatal(serr)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, serr := s.Step(context.Background()); serr != nil {
					b.Fatal(serr)
				}
			}
		})
	}
}

// benchCheckpointSession opens the benchmark workloads' population —
// 4000 users × 8 cells, default tick rate — with learning cut to the
// minimum, and steps it until every twin ring has wrapped, so a
// checkpoint taken from it has the steady-state size.
func benchCheckpointSession(b *testing.B, parallelism int) (*ClusterSession, ClusterConfig) {
	b.Helper()
	cfg := ClusterConfig{Sim: DefaultConfig(42)}
	cfg.Sim.Parallelism = parallelism
	cfg.Sim.NumUsers = 4000
	cfg.Sim.NumBS = 8
	cfg.Sim.NumIntervals = 6
	cfg.Sim.FixedK = 4
	cfg.Sim.CompressorEpochs = 1
	cfg.Sim.AgentEpisodes = 1
	s, err := OpenCluster(cfg, WithSink(DiscardSink{}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < 4; i++ {
		if _, serr := s.Step(context.Background()); serr != nil {
			b.Fatal(serr)
		}
	}
	return s, cfg
}

// BenchmarkCheckpointEncode measures one whole-session Checkpoint of
// the 4000 × 8 cluster, its cells encoded on every core; MB/s is over
// the encoded stream.
func BenchmarkCheckpointEncode(b *testing.B) { benchCheckpointEncode(b, 0) }

// BenchmarkCheckpointEncodeSerial is BenchmarkCheckpointEncode on a
// one-worker pool: the cells encode one after another, so the pair
// shows what the concurrent encode buys and what it costs on one core.
func BenchmarkCheckpointEncodeSerial(b *testing.B) { benchCheckpointEncode(b, 1) }

func benchCheckpointEncode(b *testing.B, parallelism int) {
	s, _ := benchCheckpointSession(b, parallelism)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil { // size the buffer outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(buf.Len())/4000, "bytes/user")
}

// BenchmarkCheckpointDecode measures ResumeCluster from that
// checkpoint: the cells' construction, then the decode, which builds
// each twin once into its cell's slab and decodes its state over it.
func BenchmarkCheckpointDecode(b *testing.B) {
	s, cfg := benchCheckpointSession(b, 0)
	benchResume(b, s, cfg)
}

// BenchmarkCheckpointDecodeChurned is BenchmarkCheckpointDecode on the
// durable_resume workload's checkpoint: CNN codes, 5 % churn, taken at
// interval 12, by which about 46 % of the users (1 − 0.95¹²) are churn
// arrivals, each of which a resume builds on its own derived stream.
func BenchmarkCheckpointDecodeChurned(b *testing.B) {
	cfg := ClusterConfig{Sim: DefaultConfig(42)}
	cfg.Sim.NumUsers = 4000
	cfg.Sim.NumBS = 8
	cfg.Sim.FixedK = 4
	cfg.Sim.ChurnPerInterval = 0.05
	cfg.Sim.Grouping.UseCNN = true
	cfg.Sim.CompressorEpochs = 1
	s, err := OpenCluster(cfg, WithSink(DiscardSink{}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < 12; i++ {
		if _, serr := s.Step(context.Background()); serr != nil {
			b.Fatal(serr)
		}
	}
	benchResume(b, s, cfg)
}

// benchResume times ResumeCluster from a checkpoint of s; MB/s is over
// the stream.
func benchResume(b *testing.B, s *ClusterSession, cfg ClusterConfig) {
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ResumeCluster(cfg, bytes.NewReader(buf.Bytes()), WithSink(DiscardSink{}))
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkTwinCodec measures the per-user wire codec — what a
// handover ships and the "users" checkpoint section repeats — on one
// user whose twin rings have wrapped. Encode must not allocate.
func BenchmarkTwinCodec(b *testing.B) {
	cfg := benchConfig(42)
	eng, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 5; i++ {
		if err := eng.WarmupIntervalContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	id := eng.UserIDs()[0]
	var enc checkpoint.Enc
	if err := eng.EncodeUser(&enc, id); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc.Bytes())))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			if err := eng.EncodeUser(&enc, id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		blob := bytes.Clone(enc.Bytes())
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DecodeUser(checkpoint.NewDec(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupProfile measures one group's abstraction (§II-B2) on
// 125 twins — a 4000-user × 8-cell run's group at K = 4 — holding 4
// and 48 intervals of cumulative views, 25 views a twin an interval.
// The abstraction reads per-category counters, so late must cost what
// early does, in time and in allocations.
func BenchmarkGroupProfile(b *testing.B) {
	catalog, err := video.NewCatalog(video.CatalogConfig{NumVideos: 500}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		intervals int
	}{{"early", 4}, {"late", 48}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			twins := make([]*udt.Twin, 125)
			for i := range twins {
				tw, err := udt.NewTwin(i, udt.Config{})
				if err != nil {
					b.Fatal(err)
				}
				for v := 0; v < 25*bc.intervals; v++ {
					cat := video.AllCategories()[rng.Intn(video.NumCategories)]
					if _, err := tw.CollectView(cat, 30*rng.Float64(), rng.Float64(), false); err != nil {
						b.Fatal(err)
					}
				}
				twins[i] = tw
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := predict.BuildGroupProfile(twins, catalog, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectTicks measures one interval of UDT collection —
// mobility, handover check, channel sample and the twin's collector,
// 30 ticks a user — for 500 users on one worker.
func BenchmarkCollectTicks(b *testing.B) {
	cfg := benchConfig(42)
	cfg.NumUsers = 500
	cfg.Parallelism = 1
	eng, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	// A first interval leaves the pool's goroutines on the runtime's
	// free list, so a -benchtime 1x sample reads the steady-state
	// allocations.
	if err := eng.CollectTicks(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.CollectTicks(); err != nil {
			b.Fatal(err)
		}
	}
}

// mathSink keeps the math-loop benchmarks' results live.
var mathSink float64

// benchLogInputs is one tick chunk's logarithm arguments as the engine
// stages them: 32 distances in km, then 32 Rayleigh fade powers.
func benchLogInputs() []float64 {
	rng := rand.New(rand.NewSource(46))
	x := make([]float64, 64)
	for i := range x {
		if i < 32 {
			x[i] = (10 + rng.Float64()*1500) / 1000
		} else {
			x[i] = max(rng.ExpFloat64(), 1e-9)
		}
	}
	return x
}

// BenchmarkLogInto measures a tick chunk's 64 logarithms: the batched
// kernel (4-wide AVX2 where available) against the scalar math.Log
// loop it replaced. Both produce the same bits.
func BenchmarkLogInto(b *testing.B) {
	x := benchLogInputs()
	dst := make([]float64, len(x))
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecmath.LogInto(dst, x)
		}
		mathSink = dst[0]
	})
	b.Run("math", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, v := range x {
				dst[j] = math.Log(v)
			}
		}
		mathSink = dst[0]
	})
}

// BenchmarkHypotInto measures a tick chunk's 32 station distances: the
// batched kernel against the scalar math.Hypot loop.
func BenchmarkHypotInto(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	p, q := make([]float64, 32), make([]float64, 32)
	for i := range p {
		p[i], q[i] = (rng.Float64()-0.5)*2000, (rng.Float64()-0.5)*2000
	}
	dst := make([]float64, len(p))
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecmath.HypotInto(dst, p, q)
		}
		mathSink = dst[0]
	})
	b.Run("math", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range p {
				dst[j] = math.Hypot(p[j], q[j])
			}
		}
		mathSink = dst[0]
	})
}

// BenchmarkSampleFromCategory measures one popularity-weighted draw
// within a category — every warm-up view and every explored feed video
// makes one — over the default 500-video catalog with the engine's
// category skew, cycling through the five categories.
func BenchmarkSampleFromCategory(b *testing.B) {
	c := DefaultConfig(42).Defaulted()
	rng := rand.New(rand.NewSource(42))
	catalog, err := video.NewCatalog(video.CatalogConfig{NumVideos: c.CatalogSize, CategoryWeights: c.CategoryWeights}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cats := video.AllCategories()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := catalog.SampleFromCategory(cats[i%len(cats)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenCluster measures OpenCluster of the benchmark
// workloads' population, 4000 users × 8 cells: nearly all of it is
// building users, and most of a user is its twin.
func BenchmarkOpenCluster(b *testing.B) {
	cfg := ClusterConfig{Sim: DefaultConfig(42)}
	cfg.Sim.NumUsers = 4000
	cfg.Sim.NumBS = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := OpenCluster(cfg, WithSink(DiscardSink{}))
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkPoolFor measures parallel.Pool's claim scheme on all cores:
// "fine" is 2000 cheap index-owned writes — the shape of a K-means
// assignment or silhouette row fan-out, where per-index claims and
// neighbouring indices on different cores cost more than the work —
// and "heavy" is eight items of about 40 µs each, the shape of a cell
// or group fan-out, which must stay spread over the workers.
func BenchmarkPoolFor(b *testing.B) {
	pool := parallel.New(0)
	run := func(b *testing.B, n int, fn func(int) error) {
		// A first fan-out leaves the workers' goroutines on the
		// runtime's free list, so a -benchtime 1x sample reads the
		// steady-state allocations.
		if err := pool.For(n, fn); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.For(n, fn); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fine", func(b *testing.B) {
		out := make([]float64, 2000)
		run(b, len(out), func(i int) error {
			out[i] = math.Sqrt(float64(i)) * 1.5
			return nil
		})
	})
	b.Run("heavy", func(b *testing.B) {
		src := make([]float64, 40_000)
		for i := range src {
			src[i] = float64(i % 97)
		}
		out := make([]float64, 8)
		run(b, len(out), func(i int) error {
			var s float64
			for _, v := range src {
				s += v * float64(i+1)
			}
			out[i] = s
			return nil
		})
	})
}

// BenchmarkSilhouetteDists measures one DDQN reward's silhouette over
// 2000 staged eight-dimensional codes, on all cores, at the two ends of
// the K range: every distance is computed on the fly, n² of them per
// call, by the AVX2 distance-sum kernel.
func BenchmarkSilhouetteDists(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	codes := make([]vecmath.Vec, 2000)
	for i := range codes {
		c := make(vecmath.Vec, 8)
		for j := range c {
			c[j] = float64(i%6) + 0.5*rng.NormFloat64()
		}
		codes[i] = c
	}
	pool := parallel.New(0)
	dists, err := kmeans.PairDistances(codes, pool)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			res, err := kmeans.Run(codes, k, rand.New(rand.NewSource(12)), kmeans.Options{})
			if err != nil {
				b.Fatal(err)
			}
			// The first call grows the set's scratch; keep it out of
			// the loop so a -benchtime 1x sample reads the steady state.
			if _, err := kmeans.SilhouetteDists(dists, res.Assign, k, pool); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.SilhouetteDists(dists, res.Assign, k, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairDistances measures staging the codes a DDQN training run
// scores: 2000 eight-dimensional codes validated and copied into the
// distance-sum kernel's layout, n·d floats allocated per call. No
// distance is computed here; SilhouetteDists computes them.
func BenchmarkPairDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	codes := make([]vecmath.Vec, 2000)
	for i := range codes {
		c := make(vecmath.Vec, 8)
		for j := range c {
			c[j] = float64(i%6) + 0.5*rng.NormFloat64()
		}
		codes[i] = c
	}
	pool := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.PairDistances(codes, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdamStep measures one optimizer step over the parameter
// shapes of the CNN compressor (conv, encoder head, two decoder
// layers: 5 656 weights), the sequential tail of every training batch.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var params []nn.Param
	for _, n := range []int{120, 8, 448, 8, 448, 56, 4480, 80} {
		p := nn.Param{W: make([]float64, n), G: make([]float64, n)}
		for j := range p.W {
			p.W[j] = rng.NormFloat64()
			p.G[j] = 0.1 * rng.NormFloat64()
		}
		params = append(params, p)
	}
	opt := nn.NewAdam(1e-3 * math.Sqrt(8))
	// The first step allocates the moment estimates.
	if err := opt.Step(params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.Step(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainAgent measures the DDQN half of the learning prologue
// at a monolithic engine's scale: the prologue's 150 episodes over the
// codes of 2000 twins, on all cores. Each call first stages the codes
// (n·d floats, no distance matrix); then the first episode that picks
// one of the 7 grouping numbers pays a K-means++ run and a silhouette
// for it (a few ms each), and every other episode costs only the agent's
// step and minibatch update (well under a millisecond). The compressor
// is trained and encoded once outside the timer, and every iteration
// decodes the same weights and starts from the same random stream.
func BenchmarkTrainAgent(b *testing.B) {
	twins := populationTwins(b, 2000)
	cfg := grouping.Config{WindowSteps: 16, PosScale: 2000, KMin: 2, KMax: 8, UseCNN: true}
	trained, err := grouping.New(cfg, rand.New(rand.NewSource(14)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := trained.TrainCompressor(twins, 2); err != nil {
		b.Fatal(err)
	}
	var state checkpoint.Enc
	trained.EncodeState(&state)
	pool := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder, err := grouping.New(cfg, rand.New(rand.NewSource(15)))
		if err != nil {
			b.Fatal(err)
		}
		if err := builder.DecodeState(checkpoint.NewDec(state.Bytes())); err != nil {
			b.Fatal(err)
		}
		builder.SetPool(pool)
		if _, err := builder.TrainAgent(twins, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestAliveBS measures the per-tick nearest-station search
// of 8 grid stations over 1024 campus positions (one op = 1024
// searches): with no quarantine mask, with a mask that rules nothing
// out, and with one station down.
func BenchmarkNearestAliveBS(b *testing.B) {
	campus := mobility.CampusMap()
	stations, err := channel.GridDeploy(campus, 8, 30)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	pts := make([]mobility.Point, 1024)
	for i := range pts {
		pts[i] = campus.RandomPoint(rng)
	}
	oneDown := make([]bool, len(stations))
	oneDown[4] = true
	for _, bc := range []struct {
		name string
		down []bool
	}{{"nomask", nil}, {"nonedown", make([]bool, len(stations))}, {"onedown", oneDown}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pts {
					if _, err := channel.NearestAliveBS(stations, bc.down, p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkHandoverPass measures one boundary handover pass of the
// benchmark workloads' population, 4000 users × 8 cells, once trained
// (FixedK 4, so the prologue is short): PlanHandovers, then
// ApplyHandovers of the plan — per touched cell one batched group pick
// and one splice — and the conservation check. The plan is the real
// one after the first interval; between iterations, off the clock, its
// reverse puts every migrant back in its old cell, so each iteration
// replays the same moves. DefaultConfig leaves the CNN off, so the
// picks compare raw windows; BenchmarkHandoverPassCNN is the same pass
// with the encoder on. Reported metric: moves per pass.
func BenchmarkHandoverPass(b *testing.B) { benchHandoverPass(b, false) }

// BenchmarkHandoverPassCNN is BenchmarkHandoverPass with the 1D-CNN
// compressor on, the benchmark workloads' setting: each touched cell
// encodes its arrivals in one batch before picking their groups.
func BenchmarkHandoverPassCNN(b *testing.B) { benchHandoverPass(b, true) }

func benchHandoverPass(b *testing.B, cnn bool) {
	cfg := ClusterConfig{Sim: DefaultConfig(42)}
	cfg.Sim.NumUsers = 4000
	cfg.Sim.NumBS = 8
	cfg.Sim.FixedK = 4
	cfg.Sim.CompressorEpochs = 2
	cfg.Sim.Grouping.UseCNN = cnn
	w, err := cluster.NewWorker(cfg, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	apply := func(moves []cluster.Handover) {
		if err := w.ApplyHandovers(moves); err != nil {
			b.Fatal(err)
		}
	}
	plan := func() []cluster.Handover {
		p, err := w.PlanHandovers()
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for i := 0; i < w.Config().Sim.WarmupIntervals; i++ {
		if err := w.WarmupStep(ctx); err != nil {
			b.Fatal(err)
		}
		apply(plan())
	}
	if err := w.TrainAndBuild(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := w.StepInterval(ctx, 0); err != nil {
		b.Fatal(err)
	}
	back := append([]cluster.Handover(nil), plan()...)
	for i := range back {
		back[i].From, back[i].To = back[i].To, back[i].From
	}
	// One untimed round trip sizes every buffer of the pass.
	apply(plan())
	apply(back)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(plan())
		b.StopTimer()
		apply(back)
		b.StartTimer()
	}
	b.ReportMetric(float64(len(back)), "moves")
}
