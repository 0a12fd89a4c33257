// Campus: build the paper's scenario by hand from the substrate
// packages — campus map, base stations, mobile users with digital
// twins — then run the two-step multicast group construction and
// inspect the groups. This example shows the lower-level API beneath
// dtmsvs.Open.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/channel"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	campus := mobility.CampusMap()

	stations, err := channel.GridDeploy(campus, 4, 30)
	if err != nil {
		return err
	}
	params := channel.DefaultParams()

	// 40 users: half sit in lecture halls near the first landmark
	// with good coverage and News preferences; half wander the campus
	// edge with Game preferences.
	const numUsers = 40
	twins := make([]*udt.Twin, numUsers)
	for i := 0; i < numUsers; i++ {
		var mob mobility.Model
		var fav video.Category
		if i < numUsers/2 {
			mob = &mobility.Static{P: mobility.Point{X: 420 + float64(i)*4, Y: 480}}
			fav = video.News
		} else {
			w, werr := mobility.NewRandomWaypoint(campus, 0.5, 1.2, 60, rng)
			if werr != nil {
				return werr
			}
			mob = w
			fav = video.Game
		}
		pref, perr := behavior.NewRandomPreference(rng, fav, 6)
		if perr != nil {
			return perr
		}

		twin, terr := udt.NewTwin(i, udt.Config{})
		if terr != nil {
			return terr
		}
		bs, berr := channel.NearestBS(stations, mob.Position())
		if berr != nil {
			return berr
		}
		link, lerr := channel.NewLink(params, bs, rng)
		if lerr != nil {
			return lerr
		}

		// Collect 10 minutes of status into the twin at 10 s ticks.
		for tick := 0; tick < 60; tick++ {
			pos, aerr := mob.Advance(10)
			if aerr != nil {
				return aerr
			}
			twin.Tick()
			snr := link.Sample(pos)
			if _, cerr := twin.CollectChannel(channel.CQI(snr)); cerr != nil {
				return cerr
			}
			twin.CollectLocation(pos.X, pos.Y)
			if _, perr := twin.CollectPreference(pref); perr != nil {
				return perr
			}
			// One synthetic view per tick keeps the watch series hot.
			watch := 30 * pref[fav.Index()] * 2
			engagement := watch / 35
			if engagement > 1 {
				engagement = 1
			}
			if _, verr := twin.CollectView(fav, watch, engagement, watch < 35); verr != nil {
				return verr
			}
		}
		twins[i] = twin
	}

	// Two-step construction: CNN compression → DDQN K → K-means++.
	builder, err := grouping.New(grouping.Config{
		WindowSteps: 16,
		PosScale:    campus.Width,
		KMin:        2,
		KMax:        6,
		UseCNN:      true,
	}, rng)
	if err != nil {
		return err
	}
	// Fan the K-means assignment and silhouette scans across all
	// cores; results are bit-identical to the sequential path.
	builder.SetPool(parallel.New(0))
	if _, err := builder.TrainCompressor(twins, 15); err != nil {
		return err
	}
	if _, err := builder.TrainAgent(twins, 100); err != nil {
		return err
	}
	result, err := builder.Build(twins)
	if err != nil {
		return err
	}

	fmt.Printf("constructed %d multicast groups (silhouette %.3f)\n\n", result.K, result.Silhouette())
	for _, g := range result.Groups {
		static, mobile := 0, 0
		for _, m := range g.Members {
			if m < numUsers/2 {
				static++
			} else {
				mobile++
			}
		}
		fmt.Printf("group %d: %2d members (%2d lecture-hall News watchers, %2d mobile Game watchers)\n",
			g.ID, len(g.Members), static, mobile)
	}
	return nil
}
