package predict

import (
	"math/rand"
	"testing"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/video"
)

// selectionTop is the reference ranking: collect the ok items with
// their scores, run topN passes of a selection sort that picks the first
// maximum at positions i and on and swaps it into position i, and
// return the picked indices.
func selectionTop(n, topN int, score func(i int) (float64, bool)) []int {
	type scored struct {
		idx int
		s   float64
	}
	var all []scored
	for i := 0; i < n; i++ {
		if s, ok := score(i); ok {
			all = append(all, scored{i, s})
		}
	}
	topN = min(topN, len(all))
	out := make([]int, topN)
	for i := 0; i < topN; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		out[i] = all[i].idx
	}
	return out
}

// TestTopScoresMatchesSelectionSort holds the candidate replay to the
// selection sort on score lists made of a few distinct values, so most
// scores tie and the swaps decide the order of the ties, with items left
// out, for every topN from 0 past the list's length.
func TestTopScoresMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(90)
		levels := 1 + rng.Intn(5)
		scores := make([]float64, n)
		skip := make([]bool, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels))
			skip[i] = rng.Intn(7) == 0
		}
		score := func(i int) (float64, bool) { return scores[i], !skip[i] }
		for topN := 0; topN <= n+2; topN++ {
			want := selectionTop(n, topN, score)
			got := topScores(n, topN, score, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d topN=%d: %d picks, want %d", trial, topN, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d topN=%d scores %v skip %v: picks %v, want %v", trial, topN, scores, skip, got, want)
				}
			}
		}
	}
}

// TestRankByScoreTiesAtZero ranks catalogs for group preferences that
// leave categories at zero, so every video of those categories scores
// exactly 0, and asks for more videos than score above zero: the list
// must match the selection sort's, zero-score ties included.
func TestRankByScoreTiesAtZero(t *testing.T) {
	cat, err := video.NewCatalog(video.CatalogConfig{NumVideos: 300}, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 40; trial++ {
		pref := make(behavior.Preference, video.NumCategories)
		for c := range pref {
			if rng.Intn(3) == 0 {
				pref[c] = rng.Float64()
			}
		}
		score := func(i int) (float64, bool) {
			v := cat.Videos[i]
			idx := v.Category.Index()
			if idx < 0 {
				return 0, false
			}
			return cat.Popularity(v.ID) * pref[idx], true
		}
		for _, topN := range []int{1, 10, 50, 120, 299, 300, 400} {
			want := selectionTop(cat.Size(), topN, score)
			got := rankByScore(cat, pref, topN)
			if len(got) != len(want) {
				t.Fatalf("pref %v topN=%d: %d videos, want %d", pref, topN, len(got), len(want))
			}
			for i := range want {
				if got[i] != cat.Videos[want[i]] {
					t.Fatalf("pref %v topN=%d: video %d is %d, want %d", pref, topN, i, got[i].ID, cat.Videos[want[i]].ID)
				}
			}
		}
	}
}

// TestRankByScoreAllocs gates the ranking at the engine's list length:
// one allocation, the returned list.
func TestRankByScoreAllocs(t *testing.T) {
	cat, err := video.NewCatalog(video.CatalogConfig{NumVideos: 1000}, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	pref := behavior.Preference{0.4, 0.1, 0.2, 0.05, 0.15, 0.1}[:video.NumCategories]
	if allocs := testing.AllocsPerRun(20, func() { rankByScore(cat, pref, 50) }); allocs != 1 {
		t.Fatalf("rankByScore allocates %v times, want 1", allocs)
	}
}
