// Reservation: the paper's motivating use case — reserve radio
// resources per 5-minute interval from the DT scheme's prediction and
// compare the over/under-provisioning against static peak
// provisioning and a history-only EWMA policy (experiment E7), then
// run the engine's admission mode with a hard RB budget.
package main

import (
	"context"
	"fmt"
	"log"

	"dtmsvs"
)

func main() {
	cfg := dtmsvs.Config{
		Seed:         42,
		NumUsers:     80,
		NumBS:        4,
		NumIntervals: 16,
	}

	fmt.Println("offline reservation replay (10% headroom):")
	rows, err := dtmsvs.RunReservation(context.Background(), cfg, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-22s%10s%10s%12s%13s\n", "policy", "waste", "deficit", "violations", "utilization")
	for _, r := range rows {
		fmt.Printf("  %-22s%10.1f%10.1f%11.2f%%%12.2f%%\n",
			r.Policy, r.Waste, r.Deficit, r.ViolationRate*100, r.Utilization*100)
	}

	// In-engine admission: a hard shared budget forces rung cuts when
	// predictions exceed capacity.
	fmt.Println("\nin-engine admission with a hard 8-RB budget:")
	cfg.RBBudget = 8
	s, err := dtmsvs.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
	trace := s.Trace()
	summary, err := trace.Summarize()
	if err != nil {
		log.Fatal(err)
	}
	var granted, starvedIntervals int
	for _, r := range trace.Records {
		granted += r.AllocatedRBs
		if float64(r.AllocatedRBs) < r.ActualRBs {
			starvedIntervals++
		}
	}
	fmt.Printf("  groups=%d  mean actual demand=%.2f RBs  peak=%.2f RBs\n",
		summary.Groups, summary.MeanActualRBs, summary.PeakActualRBs)
	fmt.Printf("  total granted=%d RB-intervals, under-granted records=%d/%d\n",
		granted, starvedIntervals, len(trace.Records))
	acc, err := trace.RadioAccuracy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  radio accuracy under admission: %.2f%%\n", acc*100)
}
