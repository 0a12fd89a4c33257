// Replay: run the grouping + abstraction pipeline offline on a
// viewing trace — no live simulation. Generates a synthetic
// challenge-style dataset (stand-in for a real trace in the same
// schema), replays it into user digital twins, constructs multicast
// groups and prints each group's abstracted swiping behavior.
//
// With -trace FILE the example instead replays a stored session
// trace (written by dtsim in any format — json, ndjson, csv
// or the binary columnar bin; detection is automatic) and prints each
// group's demand history, showing how downstream tools consume traces
// format-transparently.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"dtmsvs"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

func main() {
	tracePath := flag.String("trace", "", "replay a stored session trace file (any format) instead of the synthetic dataset")
	flag.Parse()
	if err := run(*tracePath); err != nil {
		log.Fatal(err)
	}
}

// replayTrace reads a stored session trace — format auto-detected —
// and prints each multicast group's per-interval radio demand.
func replayTrace(path string) error {
	recs, err := dtmsvs.ReadTraceFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d group-interval records from %s\n", len(recs), path)
	type agg struct {
		intervals       int
		size            int
		predRBs, actRBs float64
	}
	groups := map[int]*agg{}
	for _, r := range recs {
		g := groups[r.GroupID]
		if g == nil {
			g = &agg{}
			groups[r.GroupID] = g
		}
		g.intervals++
		if r.Size > g.size {
			g.size = r.Size
		}
		g.predRBs += r.PredictedRBs
		g.actRBs += r.ActualRBs
	}
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		g := groups[id]
		fmt.Printf("group %d (peak %2d members, %d intervals): predicted %.1f RBs, actual %.1f RBs\n",
			id, g.size, g.intervals, g.predRBs, g.actRBs)
	}
	return nil
}

func run(tracePath string) error {
	if tracePath != "" {
		return replayTrace(tracePath)
	}
	rng := rand.New(rand.NewSource(42))

	// 1. A synthetic viewing trace.
	catalog, err := video.NewCatalog(video.CatalogConfig{
		NumVideos:       300,
		CategoryWeights: []float64{5, 3, 2.5, 2, 1},
	}, rng)
	if err != nil {
		return err
	}
	records, err := video.GenerateDataset(catalog, video.DatasetConfig{
		Users: 60, EventsPerUser: 40,
	}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d viewing events from %d users\n", len(records), 60)

	// 2. Replay into digital twins.
	twins, err := udt.ReplayDataset(records, udt.Config{WatchEvery: 1, PreferenceEvery: 1}, 0.1)
	if err != nil {
		return err
	}

	// 3. Two-step group construction on the replayed twins.
	builder, err := grouping.New(grouping.Config{
		WindowSteps: 16, PosScale: 2000,
		KMin: 2, KMax: 6, UseCNN: true,
	}, rng)
	if err != nil {
		return err
	}
	if _, err := builder.TrainCompressor(twins, 15); err != nil {
		return err
	}
	if _, err := builder.TrainAgent(twins, 80); err != nil {
		return err
	}
	result, err := builder.Build(twins)
	if err != nil {
		return err
	}
	fmt.Printf("constructed %d multicast groups (silhouette %.3f)\n\n", result.K, result.Silhouette())

	// 4. Abstract each group's swiping behavior.
	for _, g := range result.Groups {
		members := make([]*udt.Twin, len(g.Members))
		for i, m := range g.Members {
			members[i] = twins[m]
		}
		profile, perr := predict.BuildGroupProfile(members, catalog, 20)
		if perr != nil {
			return perr
		}
		fmt.Printf("group %d (%2d members): mean engagement %.1f s/view, E[watch] by category:",
			g.ID, len(g.Members), profile.MeanEngagementS)
		for _, c := range video.AllCategories() {
			e, eerr := profile.Swipe.ExpectedWatchFraction(c)
			if eerr != nil {
				return eerr
			}
			fmt.Printf("  %s %.2f", c, e)
		}
		fmt.Println()
	}
	return nil
}
