// Package video models the short-video side of the system: a catalog
// of videos tagged with categories, per-video bitrate ladders
// (representations), and Zipf popularity. It also generates a
// synthetic "short-video-streaming-challenge"-style dataset (the
// public dataset the paper uses is substituted per DESIGN.md §2).
package video

import (
	"errors"
	"fmt"
	"math/rand"

	"dtmsvs/internal/stats"
)

// ErrParam indicates an invalid catalog parameter.
var ErrParam = errors.New("video: invalid parameter")

// Category is a short-video content category.
type Category int

// The five categories used in Fig. 3(a) of the paper.
const (
	News Category = iota + 1
	Sports
	Music
	Comedy
	Game
)

// NumCategories is the size of the category set.
const NumCategories = 5

// AllCategories lists every category in display order.
func AllCategories() []Category {
	return []Category{News, Sports, Music, Comedy, Game}
}

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case News:
		return "News"
	case Sports:
		return "Sports"
	case Music:
		return "Music"
	case Comedy:
		return "Comedy"
	case Game:
		return "Game"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Index returns the zero-based index of the category, or -1.
func (c Category) Index() int {
	if c < News || c > Game {
		return -1
	}
	return int(c) - 1
}

// Representation is one encoding of a video.
type Representation struct {
	// BitrateBps is the encoded bitrate in bits/s.
	BitrateBps float64 `json:"bitrateBps"`
	// Level is the rung on the ladder (0 = lowest).
	Level int `json:"level"`
}

// DefaultLadder returns the 5-rung bitrate ladder used across the
// experiments, matching the range of the short-video-streaming
// challenge (~0.4–2.5 Mbps).
func DefaultLadder() []Representation {
	rates := []float64{400e3, 750e3, 1200e3, 1850e3, 2500e3}
	out := make([]Representation, len(rates))
	for i, r := range rates {
		out[i] = Representation{BitrateBps: r, Level: i}
	}
	return out
}

// Video is one catalog entry.
type Video struct {
	ID       int      `json:"id"`
	Category Category `json:"category"`
	// DurationS is the full video length in seconds.
	DurationS float64 `json:"durationS"`
	// Ladder is the available bitrate ladder, ascending.
	Ladder []Representation `json:"ladder"`
	// PopRank is the Zipf popularity rank (0 = most popular).
	PopRank int `json:"popRank"`
}

// HighestRep returns the top rung of the ladder.
func (v *Video) HighestRep() Representation { return v.Ladder[len(v.Ladder)-1] }

// RepAtMost returns the highest representation whose bitrate does not
// exceed maxBps, falling back to the lowest rung.
func (v *Video) RepAtMost(maxBps float64) Representation {
	best := v.Ladder[0]
	for _, r := range v.Ladder {
		if r.BitrateBps <= maxBps {
			best = r
		}
	}
	return best
}

// Catalog is the video library with popularity structure. It is
// read-only after NewCatalog, so every engine and worker goroutine
// can share one.
type Catalog struct {
	Videos []*Video
	zipf   *stats.Zipf
	// byCat holds each category's videos in ID order, indexed by
	// Category.Index.
	byCat [NumCategories][]*Video
	// byCatPop draws a position in byCat[i] weighted by the videos'
	// Zipf popularity; nil when the category is empty.
	byCatPop [NumCategories]*stats.Categorical
}

// CatalogConfig parameterizes catalog generation.
type CatalogConfig struct {
	// NumVideos in the catalog.
	NumVideos int
	// ZipfExponent of the popularity distribution (default 0.9).
	ZipfExponent float64
	// MinDurationS / MaxDurationS bound video lengths
	// (defaults 10 s / 60 s — short videos).
	MinDurationS, MaxDurationS float64
	// CategoryWeights biases category assignment; nil = uniform.
	CategoryWeights []float64
}

func (c CatalogConfig) withDefaults() CatalogConfig {
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 0.9
	}
	if c.MinDurationS == 0 {
		c.MinDurationS = 10
	}
	if c.MaxDurationS == 0 {
		c.MaxDurationS = 60
	}
	return c
}

// NewCatalog generates a catalog from the config.
func NewCatalog(cfg CatalogConfig, rng *rand.Rand) (*Catalog, error) {
	c := cfg.withDefaults()
	if c.NumVideos <= 0 {
		return nil, fmt.Errorf("catalog of %d videos: %w", c.NumVideos, ErrParam)
	}
	if c.MinDurationS <= 0 || c.MaxDurationS < c.MinDurationS {
		return nil, fmt.Errorf("durations [%v,%v]: %w", c.MinDurationS, c.MaxDurationS, ErrParam)
	}
	weights := c.CategoryWeights
	if weights == nil {
		weights = []float64{1, 1, 1, 1, 1}
	}
	if len(weights) != NumCategories {
		return nil, fmt.Errorf("%d category weights, want %d: %w", len(weights), NumCategories, ErrParam)
	}
	catDist, err := stats.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("category weights: %w", err)
	}
	zipf, err := stats.NewZipf(c.NumVideos, c.ZipfExponent)
	if err != nil {
		return nil, fmt.Errorf("catalog popularity: %w", err)
	}
	cat := &Catalog{
		Videos: make([]*Video, c.NumVideos),
		zipf:   zipf,
	}
	cats := AllCategories()
	for i := 0; i < c.NumVideos; i++ {
		v := &Video{
			ID:        i,
			Category:  cats[catDist.Sample(rng)],
			DurationS: c.MinDurationS + rng.Float64()*(c.MaxDurationS-c.MinDurationS),
			Ladder:    DefaultLadder(),
			PopRank:   i, // IDs are assigned in popularity order
		}
		cat.Videos[i] = v
		ci := v.Category.Index()
		cat.byCat[ci] = append(cat.byCat[ci], v)
	}
	for ci, vids := range cat.byCat {
		if len(vids) == 0 {
			continue
		}
		weights := make([]float64, len(vids))
		for i, v := range vids {
			weights[i] = zipf.Prob(v.ID)
		}
		if cat.byCatPop[ci], err = stats.NewCategorical(weights); err != nil {
			return nil, fmt.Errorf("category %v popularity: %w", cats[ci], err)
		}
	}
	return cat, nil
}

// Size returns the number of videos.
func (c *Catalog) Size() int { return len(c.Videos) }

// Popularity returns the Zipf probability of video id.
func (c *Catalog) Popularity(id int) float64 { return c.zipf.Prob(id) }

// SamplePopular draws a video according to global popularity.
func (c *Catalog) SamplePopular(rng *rand.Rand) *Video {
	return c.Videos[c.zipf.Sample(rng)]
}

// ByCategory returns the videos of one category (shared slice; do not
// mutate).
func (c *Catalog) ByCategory(cat Category) []*Video {
	if i := cat.Index(); i >= 0 {
		return c.byCat[i]
	}
	return nil
}

// SampleFromCategory draws a popularity-weighted video within a
// category with one rng.Float64. Returns an error if the category is
// empty.
func (c *Catalog) SampleFromCategory(cat Category, rng *rand.Rand) (*Video, error) {
	i := cat.Index()
	if i < 0 || c.byCatPop[i] == nil {
		return nil, fmt.Errorf("category %v empty: %w", cat, ErrParam)
	}
	return c.byCat[i][c.byCatPop[i].Sample(rng)], nil
}

// TopN returns the n most popular videos (by rank).
func (c *Catalog) TopN(n int) []*Video {
	if n > len(c.Videos) {
		n = len(c.Videos)
	}
	out := make([]*Video, n)
	copy(out, c.Videos[:n])
	return out
}
