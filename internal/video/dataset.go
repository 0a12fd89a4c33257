package video

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"dtmsvs/internal/stats"
)

// DatasetRecord is one synthetic viewing event, mirroring the fields
// of the public short-video-streaming-challenge traces the paper
// consumes: who watched what, at which bitrate, for how long, and
// whether they swiped away early.
type DatasetRecord struct {
	UserID     int      `json:"userId"`
	VideoID    int      `json:"videoId"`
	Category   Category `json:"category"`
	BitrateBps float64  `json:"bitrateBps"`
	// WatchS is the time actually watched in seconds.
	WatchS float64 `json:"watchS"`
	// DurationS is the full video duration.
	DurationS float64 `json:"durationS"`
	// Swiped reports whether the user swiped before the video ended.
	Swiped bool `json:"swiped"`
	// TimestampS is seconds since trace start.
	TimestampS float64 `json:"timestampS"`
}

// DatasetConfig parameterizes trace generation.
type DatasetConfig struct {
	// Users is the number of distinct users.
	Users int
	// EventsPerUser is the number of viewing events per user.
	EventsPerUser int
	// MeanEngagement in (0,1] scales how much of each video users
	// watch on average (default 0.55).
	MeanEngagement float64
}

// GenerateDataset produces a synthetic challenge-style trace over the
// catalog. Watch times follow a truncated log-normal driven by the
// per-user engagement draw; a swipe occurs whenever the watch time is
// below the video duration.
func GenerateDataset(cat *Catalog, cfg DatasetConfig, rng *rand.Rand) ([]DatasetRecord, error) {
	if cat == nil || cat.Size() == 0 {
		return nil, fmt.Errorf("empty catalog: %w", ErrParam)
	}
	if cfg.Users <= 0 || cfg.EventsPerUser <= 0 {
		return nil, fmt.Errorf("dataset %d users × %d events: %w", cfg.Users, cfg.EventsPerUser, ErrParam)
	}
	mean := cfg.MeanEngagement
	if mean == 0 {
		mean = 0.55
	}
	if mean < 0 || mean > 1 {
		return nil, fmt.Errorf("mean engagement %v: %w", mean, ErrParam)
	}
	ln, err := stats.NewLogNormal(-0.35, 0.6) // median ~0.70 of duration
	if err != nil {
		return nil, err
	}
	records := make([]DatasetRecord, 0, cfg.Users*cfg.EventsPerUser)
	for u := 0; u < cfg.Users; u++ {
		clock := rng.Float64() * 60
		// Per-user engagement multiplier around the configured mean.
		userEng := mean * (0.6 + 0.8*rng.Float64())
		for e := 0; e < cfg.EventsPerUser; e++ {
			v := cat.SamplePopular(rng)
			frac := ln.Sample(rng) * userEng
			if frac > 1 {
				frac = 1
			}
			watch := frac * v.DurationS
			rep := v.Ladder[rng.Intn(len(v.Ladder))]
			records = append(records, DatasetRecord{
				UserID:     u,
				VideoID:    v.ID,
				Category:   v.Category,
				BitrateBps: rep.BitrateBps,
				WatchS:     watch,
				DurationS:  v.DurationS,
				Swiped:     watch < v.DurationS,
				TimestampS: clock,
			})
			clock += watch + rng.Float64()*2 // brief swipe gap
		}
	}
	return records, nil
}

// WriteCSV writes records as CSV with a header row.
func WriteCSV(w io.Writer, records []DatasetRecord) error {
	cw := csv.NewWriter(w)
	header := []string{"user_id", "video_id", "category", "bitrate_bps", "watch_s", "duration_s", "swiped", "timestamp_s"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for i, r := range records {
		row := []string{
			strconv.Itoa(r.UserID),
			strconv.Itoa(r.VideoID),
			r.Category.String(),
			strconv.FormatFloat(r.BitrateBps, 'f', 0, 64),
			strconv.FormatFloat(r.WatchS, 'f', 3, 64),
			strconv.FormatFloat(r.DurationS, 'f', 3, 64),
			strconv.FormatBool(r.Swiped),
			strconv.FormatFloat(r.TimestampS, 'f', 3, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes records as a JSON array.
func WriteJSON(w io.Writer, records []DatasetRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
