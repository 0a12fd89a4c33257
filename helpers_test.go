package dtmsvs

import (
	"context"
	"math/rand"
	"testing"

	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

// mustTrace runs cfg to completion through a monolithic session (the
// experiments' runTrace) and returns its trace.
func mustTrace(tb testing.TB, cfg Config) *Trace {
	tb.Helper()
	tr, err := runTrace(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// mustClusterTrace steps a cluster session over cfg to completion and
// returns its merged trace.
func mustClusterTrace(tb testing.TB, cfg ClusterConfig) *ClusterTrace {
	tb.Helper()
	s, err := OpenCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			tb.Fatalf("interval %d: %v", s.Interval(), err)
		}
	}
	return s.Trace()
}

// benchTwins builds a two-cluster synthetic twin population for the
// grouping benches and tests.
func benchTwins(tb testing.TB) []*udt.Twin {
	tb.Helper()
	const n = 24
	twins := make([]*udt.Twin, n)
	for i := range twins {
		tw, err := udt.NewTwin(i, udt.Config{
			ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		clusterA := i < n/2
		for tick := 0; tick < 32; tick++ {
			tw.Tick()
			if clusterA {
				if _, cerr := tw.CollectChannel(12 + tick%4); cerr != nil {
					tb.Fatal(cerr)
				}
				tw.CollectLocation(200+float64(tick), 150)
				if _, verr := tw.CollectView(video.News, 35, 0.85, false); verr != nil {
					tb.Fatal(verr)
				}
			} else {
				if _, cerr := tw.CollectChannel(1 + tick%4); cerr != nil {
					tb.Fatal(cerr)
				}
				tw.CollectLocation(1800-8*float64(tick), 1700)
				if _, verr := tw.CollectView(video.Game, 4, 0.1, true); verr != nil {
					tb.Fatal(verr)
				}
			}
		}
		twins[i] = tw
	}
	return twins
}

// populationTwins builds n twins in four behavioural clusters — signal
// level, position, favourite category and watch depth — with per-tick
// noise, the scale of a monolithic engine's population.
func populationTwins(tb testing.TB, n int) []*udt.Twin {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	cats := video.AllCategories()
	twins := make([]*udt.Twin, n)
	for i := range twins {
		tw, err := udt.NewTwin(i, udt.Config{
			ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		c := i % 4
		for tick := 0; tick < 32; tick++ {
			tw.Tick()
			if _, cerr := tw.CollectChannel(1 + 4*c + rng.Intn(3)); cerr != nil {
				tb.Fatal(cerr)
			}
			tw.CollectLocation(300+400*float64(c)+40*rng.NormFloat64(), 1700-400*float64(c)+40*rng.NormFloat64())
			if _, verr := tw.CollectView(cats[c], 5+10*float64(c)*rng.Float64(), 0.2+0.2*float64(c)*rng.Float64(), c == 0); verr != nil {
				tb.Fatal(verr)
			}
		}
		twins[i] = tw
	}
	return twins
}
