package video

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dtmsvs/internal/stats"
)

func testCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cat, err := NewCatalog(CatalogConfig{NumVideos: n}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCategoryString(t *testing.T) {
	tests := []struct {
		c    Category
		want string
	}{
		{News, "News"}, {Sports, "Sports"}, {Music, "Music"},
		{Comedy, "Comedy"}, {Game, "Game"}, {Category(99), "Category(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Fatalf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCategoryIndex(t *testing.T) {
	for i, c := range AllCategories() {
		if c.Index() != i {
			t.Fatalf("%v index %d, want %d", c, c.Index(), i)
		}
	}
	if Category(0).Index() != -1 || Category(6).Index() != -1 {
		t.Fatal("invalid categories must index -1")
	}
	if len(AllCategories()) != NumCategories {
		t.Fatal("AllCategories length mismatch")
	}
}

func TestDefaultLadder(t *testing.T) {
	l := DefaultLadder()
	if len(l) != 5 {
		t.Fatalf("ladder rungs %d", len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i].BitrateBps <= l[i-1].BitrateBps {
			t.Fatal("ladder must ascend")
		}
		if l[i].Level != i {
			t.Fatalf("level %d at index %d", l[i].Level, i)
		}
	}
}

func TestRepAtMost(t *testing.T) {
	v := &Video{Ladder: DefaultLadder()}
	if r := v.RepAtMost(1e9); r.Level != 4 {
		t.Fatalf("unbounded: level %d", r.Level)
	}
	if r := v.RepAtMost(800e3); r.BitrateBps != 750e3 {
		t.Fatalf("800k cap: %v", r.BitrateBps)
	}
	if r := v.RepAtMost(1); r.Level != 0 {
		t.Fatalf("tiny cap must fall back to lowest, got level %d", r.Level)
	}
	if v.HighestRep().Level != 4 {
		t.Fatal("HighestRep")
	}
}

func TestNewCatalogValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewCatalog(CatalogConfig{NumVideos: 0}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCatalog(CatalogConfig{NumVideos: 5, MinDurationS: 50, MaxDurationS: 10}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewCatalog(CatalogConfig{NumVideos: 5, CategoryWeights: []float64{1}}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestCatalogStructure(t *testing.T) {
	cat := testCatalog(t, 200)
	if cat.Size() != 200 {
		t.Fatalf("size %d", cat.Size())
	}
	var total int
	for _, c := range AllCategories() {
		total += len(cat.ByCategory(c))
	}
	if total != 200 {
		t.Fatalf("category partition covers %d", total)
	}
	for i, v := range cat.Videos {
		if v.ID != i || v.PopRank != i {
			t.Fatalf("video %d id/rank mismatch: %+v", i, v)
		}
		if v.DurationS < 10 || v.DurationS > 60 {
			t.Fatalf("duration %v outside defaults", v.DurationS)
		}
	}
	// Popularity is Zipf: rank 0 strictly most popular.
	if cat.Popularity(0) <= cat.Popularity(100) {
		t.Fatal("popularity must decrease with rank")
	}
	var sum float64
	for i := 0; i < cat.Size(); i++ {
		sum += cat.Popularity(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("popularity sums to %v", sum)
	}
}

func TestCatalogCategoryWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Heavily News-biased catalog.
	cat, err := NewCatalog(CatalogConfig{
		NumVideos:       1000,
		CategoryWeights: []float64{10, 1, 1, 1, 1},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	news := len(cat.ByCategory(News))
	game := len(cat.ByCategory(Game))
	if news <= 3*game {
		t.Fatalf("news %d not dominant over game %d", news, game)
	}
}

func TestSamplePopularDistribution(t *testing.T) {
	cat := testCatalog(t, 50)
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[cat.SamplePopular(rng).ID]++
	}
	if float64(counts[0])/n < cat.Popularity(0)*0.9 {
		t.Fatalf("top video sampled %d/%d, popularity %v", counts[0], n, cat.Popularity(0))
	}
}

func TestSampleFromCategory(t *testing.T) {
	cat := testCatalog(t, 100)
	rng := rand.New(rand.NewSource(14))
	for _, c := range AllCategories() {
		if len(cat.ByCategory(c)) == 0 {
			continue
		}
		v, err := cat.SampleFromCategory(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v.Category != c {
			t.Fatalf("sampled %v from category %v", v.Category, c)
		}
	}
}

// sampleFromCategoryPerCall is the sampler as it was before the
// catalog kept one per category: it rebuilds the category's Zipf CDF
// on every draw. It is the reference the cached samplers must match.
func sampleFromCategoryPerCall(c *Catalog, cat Category, rng *rand.Rand) (*Video, error) {
	vids := c.ByCategory(cat)
	if len(vids) == 0 {
		return nil, ErrParam
	}
	weights := make([]float64, len(vids))
	for i, v := range vids {
		weights[i] = c.Popularity(v.ID)
	}
	d, err := stats.NewCategorical(weights)
	if err != nil {
		return nil, err
	}
	return vids[d.Sample(rng)], nil
}

func TestSampleFromCategoryMatchesPerCallCDF(t *testing.T) {
	cat := testCatalog(t, 500)
	for _, c := range AllCategories() {
		for _, seed := range []int64{1, 42, 314} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				g, err := cat.SampleFromCategory(c, got)
				if err != nil {
					t.Fatal(err)
				}
				w, err := sampleFromCategoryPerCall(cat, c, want)
				if err != nil {
					t.Fatal(err)
				}
				if g != w {
					t.Fatalf("%v seed %d draw %d: video %d, per-call CDF gives %d", c, seed, i, g.ID, w.ID)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%v seed %d: rng states diverged (%d vs %d)", c, seed, g, w)
			}
		}
	}
}

func TestSampleFromCategoryAllocFree(t *testing.T) {
	cat := testCatalog(t, 500)
	rng := rand.New(rand.NewSource(18))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cat.SampleFromCategory(Music, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SampleFromCategory allocates %v times per call", allocs)
	}
}

func TestSampleFromCategoryEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cat, err := NewCatalog(CatalogConfig{NumVideos: 50, CategoryWeights: []float64{1, 1, 0, 1, 1}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cat.ByCategory(Music)); n != 0 {
		t.Fatalf("zero-weight category holds %d videos", n)
	}
	for _, c := range []Category{Music, Category(0), Category(99)} {
		if _, err := cat.SampleFromCategory(c, rng); !errors.Is(err, ErrParam) {
			t.Fatalf("%v: want ErrParam, got %v", c, err)
		}
	}
	if _, err := cat.SampleFromCategory(News, rng); err != nil {
		t.Fatalf("non-empty category: %v", err)
	}
}

// TestSampleFromCategoryConcurrent samples one shared catalog from
// many goroutines, each with its own rng, as the engines' workers do:
// every goroutine must draw exactly what a sequential run with its
// seed draws.
func TestSampleFromCategoryConcurrent(t *testing.T) {
	cat := testCatalog(t, 500)
	const workers, draws = 8, 2000
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		cats := AllCategories()
		ids := make([]int, draws)
		for i := range ids {
			v, err := cat.SampleFromCategory(cats[i%len(cats)], rng)
			if err != nil {
				t.Error(err)
				return nil
			}
			ids[i] = v.ID
		}
		return ids
	}
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = run(int64(w))
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := range got {
		want := run(int64(w))
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("goroutine %d draw %d: video %d, sequential %d", w, i, got[w][i], want[i])
			}
		}
	}
}

func TestTopN(t *testing.T) {
	cat := testCatalog(t, 20)
	top := cat.TopN(5)
	if len(top) != 5 {
		t.Fatalf("topn %d", len(top))
	}
	for i, v := range top {
		if v.PopRank != i {
			t.Fatalf("topn[%d] rank %d", i, v.PopRank)
		}
	}
	if len(cat.TopN(100)) != 20 {
		t.Fatal("topn must clamp to catalog size")
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cat := testCatalog(t, 10)
	if _, err := GenerateDataset(nil, DatasetConfig{Users: 1, EventsPerUser: 1}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := GenerateDataset(cat, DatasetConfig{Users: 0, EventsPerUser: 1}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := GenerateDataset(cat, DatasetConfig{Users: 1, EventsPerUser: 1, MeanEngagement: 2}, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestGenerateDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cat := testCatalog(t, 50)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 10, EventsPerUser: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("%d records", len(recs))
	}
	var swipes int
	for _, r := range recs {
		if r.WatchS < 0 || r.WatchS > r.DurationS+1e-9 {
			t.Fatalf("watch %v of duration %v", r.WatchS, r.DurationS)
		}
		if r.Swiped != (r.WatchS < r.DurationS) {
			t.Fatalf("swipe flag inconsistent: %+v", r)
		}
		if r.UserID < 0 || r.UserID >= 10 {
			t.Fatalf("user id %d", r.UserID)
		}
		if r.BitrateBps < 400e3 || r.BitrateBps > 2500e3 {
			t.Fatalf("bitrate %v outside ladder", r.BitrateBps)
		}
		if r.Swiped {
			swipes++
		}
	}
	// Short-video users swipe most of the time; the generator should
	// reflect that.
	if float64(swipes)/float64(len(recs)) < 0.5 {
		t.Fatalf("swipe rate %v too low", float64(swipes)/float64(len(recs)))
	}
	// Timestamps per user must be increasing.
	lastTS := map[int]float64{}
	for _, r := range recs {
		if prev, ok := lastTS[r.UserID]; ok && r.TimestampS <= prev {
			t.Fatalf("timestamps not increasing for user %d", r.UserID)
		}
		lastTS[r.UserID] = r.TimestampS
	}
}

func TestCSVRoundTripHeaderAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cat := testCatalog(t, 10)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 2, EventsPerUser: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("%d csv lines, want 7 (header+6)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "user_id,video_id,category") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cat := testCatalog(t, 10)
	recs, err := GenerateDataset(cat, DatasetConfig{Users: 3, EventsPerUser: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var back []DatasetRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip %d != %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

// RepAtMost returns the highest rung not exceeding the cap, for any
// cap value.
func TestRepAtMostProperty(t *testing.T) {
	v := &Video{Ladder: DefaultLadder()}
	f := func(raw uint32) bool {
		cap := float64(raw % 4_000_000)
		r := v.RepAtMost(cap)
		// Result never exceeds the cap unless it is the lowest rung.
		if r.Level != 0 && r.BitrateBps > cap {
			return false
		}
		// No higher rung would also fit.
		for _, other := range v.Ladder {
			if other.Level > r.Level && other.BitrateBps <= cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
