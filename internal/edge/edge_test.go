package edge

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/video"
)

func testCatalog(t *testing.T) *video.Catalog {
	t.Helper()
	cat, err := video.NewCatalog(video.CatalogConfig{NumVideos: 50}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestCachePutContains(t *testing.T) {
	c, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Contains(1, 0) {
		t.Fatal("empty cache hit")
	}
	if err := c.Put(1, 0, 400); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(1, 0) {
		t.Fatal("miss after put")
	}
	if c.Contains(1, 1) {
		t.Fatal("wrong level hit")
	}
	if c.Used() != 400 || c.Len() != 1 {
		t.Fatalf("used %d len %d", c.Used(), c.Len())
	}
	// Hit rate: 1 hit, 2 misses so far.
	if hr := c.HitRate(); hr < 0.3 || hr > 0.34 {
		t.Fatalf("hit rate %v", hr)
	}
}

func TestCachePutValidation(t *testing.T) {
	c, err := NewCache(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 0, 0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if err := c.Put(1, 0, 200); !errors.Is(err, ErrParam) {
		t.Fatalf("oversized: want ErrParam, got %v", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(i, 0, 400); err != nil { // third put evicts
			t.Fatal(err)
		}
	}
	if c.Contains(0, 0) {
		t.Fatal("oldest entry not evicted")
	}
	if !c.Contains(1, 0) || !c.Contains(2, 0) {
		t.Fatal("recent entries evicted")
	}
	if c.Used() > 1000 {
		t.Fatalf("capacity exceeded: %d", c.Used())
	}
}

func TestCacheLRURecencyOnHit(t *testing.T) {
	c, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, 0, 400); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 0, 400); err != nil {
		t.Fatal(err)
	}
	// Touch 0 so 1 becomes LRU.
	if !c.Contains(0, 0) {
		t.Fatal("expected hit")
	}
	if err := c.Put(2, 0, 400); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(0, 0) {
		t.Fatal("recently used entry evicted")
	}
	if c.Contains(1, 0) {
		t.Fatal("lru entry survived")
	}
}

func TestTranscodeModel(t *testing.T) {
	m := DefaultTranscodeModel()
	if _, err := m.Cycles(0, 1, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := m.Cycles(1, 1, -1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	// Down-transcode: 2.5 Mbps source, 30 s → 50 × 2.5e6 × 30 cycles.
	cy, err := m.Cycles(2.5e6, 1e6, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cy != 50*2.5e6*30 {
		t.Fatalf("cycles %v", cy)
	}
	// Same or up: free.
	cy, err = m.Cycles(1e6, 1e6, 30)
	if err != nil || cy != 0 {
		t.Fatalf("same-rate cycles %v err %v", cy, err)
	}
	cy, err = m.Cycles(1e6, 2e6, 30)
	if err != nil || cy != 0 {
		t.Fatalf("up-rate cycles %v err %v", cy, err)
	}
}

func TestNewServerValidation(t *testing.T) {
	cat := testCatalog(t)
	if _, err := NewServer(0, DefaultTranscodeModel(), cat, 5); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewServer(1000, TranscodeModel{}, cat, 5); !errors.Is(err, ErrParam) {
		t.Fatalf("zero cycles/bit: want ErrParam, got %v", err)
	}
}

func TestServerPrewarm(t *testing.T) {
	cat := testCatalog(t)
	s, err := NewServer(1<<30, DefaultTranscodeModel(), cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache().Len() != 10 {
		t.Fatalf("prewarmed %d, want 10", s.Cache().Len())
	}
	// Top video at highest rep must be a hit.
	top := cat.TopN(1)[0]
	if !s.Cache().Contains(top.ID, top.HighestRep().Level) {
		t.Fatal("top video not prewarmed at highest rep")
	}
}

func TestServeCacheHitFree(t *testing.T) {
	cat := testCatalog(t)
	s, err := NewServer(1<<30, DefaultTranscodeModel(), cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	top := cat.TopN(1)[0]
	cy, err := s.Serve(top, top.HighestRep(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if cy != 0 {
		t.Fatalf("cache hit cost %v cycles", cy)
	}
}

func TestServeTranscodeMissThenHit(t *testing.T) {
	cat := testCatalog(t)
	s, err := NewServer(1<<30, DefaultTranscodeModel(), cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	top := cat.TopN(1)[0]
	low := top.Ladder[0]
	cy, err := s.Serve(top, low, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 50.0 * top.HighestRep().BitrateBps * 20
	if cy != want {
		t.Fatalf("transcode cycles %v, want %v", cy, want)
	}
	// Second request for the same rung: transcoded outputs are not
	// retained, so the transcode cost recurs.
	cy, err = s.Serve(top, low, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cy != want {
		t.Fatalf("repeat serve cost %v, want %v", cy, want)
	}
}

func TestServeValidation(t *testing.T) {
	cat := testCatalog(t)
	s, err := NewServer(1<<30, DefaultTranscodeModel(), cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(nil, video.Representation{}, 1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	v := cat.Videos[0]
	if _, err := s.Serve(v, v.Ladder[0], -1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestServerTinyCache(t *testing.T) {
	// Cache smaller than any object: prewarm stops gracefully, serves
	// still work (pass-through).
	cat := testCatalog(t)
	s, err := NewServer(10, DefaultTranscodeModel(), cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache().Len() != 0 {
		t.Fatalf("tiny cache holds %d", s.Cache().Len())
	}
	v := cat.Videos[0]
	if _, err := s.Serve(v, v.Ladder[0], 30); err != nil {
		t.Fatalf("pass-through serve failed: %v", err)
	}
}

// Cache byte accounting stays consistent under arbitrary put/lookup
// sequences: used bytes never exceed capacity and always equal the
// sum of live entries.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := NewCache(5000)
		if err != nil {
			return false
		}
		for _, op := range ops {
			id := int(op % 37)
			level := int(op/37) % 5
			size := int64(op%900) + 1
			switch {
			case op%3 == 0:
				c.Contains(id, level)
			default:
				if err := c.Put(id, level, size); err != nil && !errors.Is(err, ErrParam) {
					return false
				}
			}
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCounts(t *testing.T) {
	c, err := NewCache(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	c.Contains(1, 0) // hit
	c.Contains(2, 0) // miss
	c.Contains(2, 0) // miss
	hits, misses := c.Counts()
	if hits != 1 || misses != 2 {
		t.Fatalf("counts %d/%d, want 1/2", hits, misses)
	}
	if want := 1.0 / 3.0; c.HitRate() != want {
		t.Fatalf("hit rate %v, want %v", c.HitRate(), want)
	}
}

// TestCacheDrop: quarantining a cell empties its cache in one call —
// entries and byte accounting go to zero while the hit/miss history
// survives (dropped entries are losses, not evictions) — and the
// cache accepts new content afterwards.
func TestCacheDrop(t *testing.T) {
	c, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Put(i, 0, 300); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Contains(0, 0) { // 1 hit, and misses from the Put probes
		t.Fatal("entry missing before drop")
	}
	hits, misses := c.Counts()
	evictions := c.Evictions()

	c.Drop()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("after drop: len %d used %d", c.Len(), c.Used())
	}
	if c.Contains(0, 0) || c.Contains(1, 0) {
		t.Fatal("dropped entry still present")
	}
	// The Contains probes above count as misses; everything before the
	// drop is preserved and no eviction was recorded.
	if h, m := c.Counts(); h != hits || m != misses+2 {
		t.Fatalf("counters rewritten: hits %d->%d misses %d->%d", hits, h, misses, m)
	}
	if c.Evictions() != evictions {
		t.Fatalf("drop counted as eviction: %d -> %d", evictions, c.Evictions())
	}
	if err := c.Put(5, 1, 800); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(5, 1) || c.Used() != 800 {
		t.Fatal("cache unusable after drop")
	}
}

// TestCacheStateRoundTrip: a cache decodes into an empty one with its
// recency order and counters, so the next eviction picks the same
// victim; a non-positive size, a repeated entry, entries past the
// capacity and negative counters are refused as corrupt.
func TestCacheStateRoundTrip(t *testing.T) {
	c, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(i, i%2, 200); err != nil {
			t.Fatal(err)
		}
	}
	c.Contains(0, 0) // 0 becomes the most recent, 1 the least
	c.Contains(9, 0)
	var e checkpoint.Enc
	c.EncodeState(&e)
	back, err := NewCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Put(7, 0, 900); err != nil { // overwritten by the decode
		t.Fatal(err)
	}
	d := checkpoint.NewDec(e.Bytes())
	if err := back.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var again checkpoint.Enc
	back.EncodeState(&again)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatal("encode → decode → encode changed the bytes")
	}
	if back.Used() != 600 || back.Len() != 3 {
		t.Fatalf("decoded cache holds %d entries, %d bytes", back.Len(), back.Used())
	}
	if err := back.Put(5, 0, 500); err != nil {
		t.Fatal(err)
	}
	if back.Contains(1, 1) || !back.Contains(0, 0) {
		t.Fatal("the decoded cache evicted another entry than the least recent")
	}

	state := func(capacity int64, entries [][3]int, hits, misses int) error {
		var e checkpoint.Enc
		e.U32(uint32(len(entries)))
		for _, ent := range entries {
			e.Int(ent[0])
			e.Int(ent[1])
			e.I64(int64(ent[2]))
		}
		e.Int(hits)
		e.Int(misses)
		c, err := NewCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		return c.DecodeState(checkpoint.NewDec(e.Bytes()))
	}
	if err := state(1000, [][3]int{{1, 0, 500}, {2, 0, 500}}, 0, 0); err != nil {
		t.Fatalf("a full cache: %v", err)
	}
	for name, err := range map[string]error{
		"zero size":        state(1000, [][3]int{{1, 0, 0}}, 0, 0),
		"duplicate":        state(1000, [][3]int{{1, 0, 10}, {1, 0, 10}}, 0, 0),
		"past capacity":    state(1000, [][3]int{{1, 0, 600}, {2, 0, 600}}, 0, 0),
		"negative hits":    state(1000, nil, -1, 0),
		"negative misses":  state(1000, nil, 0, -1),
		"truncated counts": c.DecodeState(checkpoint.NewDec(e.Bytes()[:len(e.Bytes())-1])),
	} {
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: want checkpoint.ErrCorrupt, got %v", name, err)
		}
	}
}
