// City: the cluster engine's flagship scenario — a city-scale
// population (50k users by default, ≥16 base stations) that the
// monolithic engine cannot reasonably serve: every silhouette of
// campus-wide group construction computes O(N²) pairwise distances
// (2.5·10⁹ per scored K at 50k users, for DDQN training and the
// silhouette scans), while the one-cell-per-station engine computes only
// Σ(N/C)² — super-linear headroom in the cell count — and runs whole
// cells concurrently, including the streaming phase.
//
// The run goes through the Session API with a streaming sink, so the
// trace never accumulates in heap: records flow to -out (NDJSON, or
// the binary columnar format with -format bin, flushed per interval)
// or are dropped after the per-interval stats are folded into the
// running accuracy. Ctrl-C stops at the next interval boundary with
// the partial trace flushed. At city scale the trace itself is the
// bottleneck — 50k users emit millions of records — which is exactly
// what -format bin is for.
//
// Run with:
//
//	go run ./examples/city [-users 50000] [-bs 16] [-intervals 12] [-out city.bin -format bin]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dtmsvs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		users     = flag.Int("users", 50000, "city population")
		bs        = flag.Int("bs", 16, "number of base stations / coverage cells")
		intervals = flag.Int("intervals", 12, "reservation intervals")
		par       = flag.Int("parallel", 0, "worker goroutines (0 = all cores)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "stream the trace to this file (default: records are not kept)")
		format    = flag.String("format", "ndjson", `-out stream format: "ndjson" or "bin" (binary columnar — ~10× smaller)`)
	)
	flag.Parse()

	cfg := dtmsvs.DefaultConfig(*seed)
	cfg.NumUsers = *users
	cfg.NumBS = *bs
	cfg.NumIntervals = *intervals
	cfg.Parallelism = *par
	// City-scale knobs: lighter collection and training cadence keeps
	// the example interactive; the pipeline itself is unchanged.
	cfg.TicksPerInterval = 10
	cfg.WarmupIntervals = 1
	cfg.CompressorEpochs = 3
	cfg.AgentEpisodes = 10
	cfg.ChurnPerInterval = 0.01
	cfg.PrefetchDepth = -1

	fmt.Printf("city: %d users, %d BS coverage cells, %d intervals (seed %d)\n\n",
		*users, *bs, *intervals, *seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A sink always owns the records, so neither the session nor the
	// engine retains the trace: the run's heap stays flat in the
	// interval count.
	var sink dtmsvs.TraceSink = dtmsvs.DiscardSink{}
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		switch *format {
		case "ndjson":
			sink = dtmsvs.NewNDJSONSink(f)
		case "bin":
			bsink, serr := dtmsvs.NewBinarySink(f)
			if serr != nil {
				return serr
			}
			defer bsink.Close()
			sink = bsink
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}

	// The paper's accuracy metric (1 − MAPE) folds online from the
	// interval reports — no record retention needed.
	var acc dtmsvs.AccuracyTracker
	var records int
	onInterval := func(rep dtmsvs.IntervalReport) {
		records += len(rep.Records)
		acc.Observe(rep)
		fmt.Printf("interval %2d/%d: %3d groups, %5.1f predicted RBs, %5.1f actual, %d handovers so far\n",
			rep.Interval+1, *intervals, rep.Groups, rep.PredictedRBs, rep.ActualRBs, rep.Handovers)
	}

	start := time.Now()
	s, err := dtmsvs.OpenCluster(
		dtmsvs.ClusterConfig{Sim: cfg},
		dtmsvs.WithSink(sink),
		dtmsvs.WithObserver(onInterval),
	)
	if err != nil {
		return err
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(ctx); serr != nil {
			if errors.Is(serr, context.Canceled) {
				fmt.Printf("\ninterrupted after %d intervals; partial trace flushed\n", s.Interval())
				return nil
			}
			return serr
		}
	}
	elapsed := time.Since(start)

	// Trace() carries the run-level and per-cell statistics; the
	// records themselves went to the sink.
	trace := s.Trace()
	fmt.Printf("\n%-6s%9s%5s%13s%12s%10s%10s\n", "cell", "users", "K", "silhouette", "cache-hit", "churned", "migrated")
	for _, c := range trace.Cells {
		fmt.Printf("%-6d%9d%5d%13.3f%11.2f%%%10d%10d\n",
			c.BS, c.Users, c.K, c.Silhouette, c.CacheHitRate*100, c.ChurnedUsers, c.AttachedTwins)
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// The grouping pipeline's dominant cost is the silhouette's pairwise
	// distances: O(N²) campus-wide vs Σ(cellᵢ²) per cell.
	monolithicPairs := float64(*users) * float64(*users)
	var perCellPairs float64
	for _, c := range trace.Cells {
		perCellPairs += float64(c.Users) * float64(c.Users)
	}

	radioAcc, err := acc.RadioAccuracy()
	if err != nil {
		return err
	}
	fmt.Printf("\n%d records streamed, %d twin handovers, %d churned users in %v\n",
		records, trace.Handovers, trace.ChurnedUsers, elapsed.Round(time.Millisecond))
	fmt.Printf("radio-accuracy %.2f%%, aggregate cache-hit %.2f%%\n", radioAcc*100, trace.CacheHitRate*100)
	fmt.Printf("peak heap %.2f GB; pairwise distances per silhouette: monolithic %.3g → per cell %.3g (%.0f× headroom)\n",
		float64(m.HeapSys)/1e9, monolithicPairs, perCellPairs, monolithicPairs/perCellPairs)
	return nil
}
