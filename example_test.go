package dtmsvs_test

import (
	"context"
	"fmt"

	"dtmsvs"
)

// ExampleOpen steps a small scenario one reservation interval at a
// time — the session loop every tool in cmd/ is built on.
func ExampleOpen() {
	cfg := dtmsvs.Config{
		Seed:             7,
		NumUsers:         24,
		NumBS:            4,
		CatalogSize:      120,
		NumIntervals:     2,
		TicksPerInterval: 10,
		WarmupIntervals:  1,
		CompressorEpochs: 2,
		AgentEpisodes:    20,
	}
	s, err := dtmsvs.Open(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer s.Close()
	for !s.Done() {
		rep, err := s.Step(context.Background())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("interval %d: %d groups\n", rep.Interval, rep.Groups)
	}
	// Output:
	// interval 0: 7 groups
	// interval 1: 7 groups
}

// ExampleOpenCluster streams a one-cell-per-station run's records into a sink, so
// the session itself never retains the trace.
func ExampleOpenCluster() {
	cfg := dtmsvs.ClusterConfig{
		Sim: dtmsvs.Config{
			Seed:             7,
			NumUsers:         32,
			NumBS:            4,
			CatalogSize:      120,
			NumIntervals:     2,
			TicksPerInterval: 6,
			WarmupIntervals:  1,
			CompressorEpochs: 2,
			AgentEpisodes:    10,
		},
	}
	var sink dtmsvs.BufferedSink
	s, err := dtmsvs.OpenCluster(cfg, dtmsvs.WithSink(&sink))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	fmt.Println("records streamed:", len(sink.Records) > 0)
	fmt.Println("session retained:", len(s.Trace().Records))
	// Output:
	// records streamed: true
	// session retained: 0
}
