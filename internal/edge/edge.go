// Package edge models the edge server (paper §II-A): it caches
// popular short videos at their highest representation and transcodes
// them down to lower rungs on demand. Computing consumption is
// measured in CPU cycles with a standard cycles-per-bit transcoding
// cost model; cache hits at the exact representation cost nothing.
package edge

import (
	"container/list"
	"errors"
	"fmt"
	"sync/atomic"

	"dtmsvs/internal/video"
)

// ErrParam indicates invalid edge-server input.
var ErrParam = errors.New("edge: invalid parameter")

// cacheKey identifies a cached (video, representation level) pair.
type cacheKey struct {
	videoID int
	level   int
}

// Cache is an LRU cache of video representations measured in bytes.
//
// The structural state (list, map) has a single writer — the engine
// goroutine that owns the cell — but the accounting counters are
// atomics so a live metrics exporter (obs.Registry func metrics read
// from an HTTP handler goroutine) can sample hits/misses/evictions
// and resident bytes mid-interval without a data race.
type Cache struct {
	capacityBytes int64
	usedBytes     atomic.Int64
	ll            *list.List
	items         map[cacheKey]*list.Element

	hits, misses, evictions atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	size int64
}

// NewCache creates an LRU cache with the given byte capacity.
func NewCache(capacityBytes int64) (*Cache, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("cache capacity %d: %w", capacityBytes, ErrParam)
	}
	return &Cache{
		capacityBytes: capacityBytes,
		ll:            list.New(),
		items:         make(map[cacheKey]*list.Element),
	}, nil
}

// Used returns bytes currently cached.
func (c *Cache) Used() int64 { return c.usedBytes.Load() }

// Capacity returns the cache capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacityBytes }

// Len returns the number of cached representations.
func (c *Cache) Len() int { return c.ll.Len() }

// Counts returns the raw hit/miss counters, letting callers (the
// cluster engine) aggregate hit rates across many caches weighted by
// actual lookup volume.
func (c *Cache) Counts() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// Evictions returns the number of LRU evictions so far.
func (c *Cache) Evictions() int { return int(c.evictions.Load()) }

// HitRate returns hits/(hits+misses), 0 before any lookups.
func (c *Cache) HitRate() float64 {
	hits, misses := c.Counts()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Contains checks for an exact (video, level) entry and refreshes its
// recency on hit. Hit/miss counters are updated.
func (c *Cache) Contains(videoID, level int) bool {
	if el, ok := c.items[cacheKey{videoID, level}]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return true
	}
	c.misses.Add(1)
	return false
}

// Put inserts a representation of the given size, evicting LRU
// entries as needed. Items larger than the capacity are rejected.
func (c *Cache) Put(videoID, level int, sizeBytes int64) error {
	if sizeBytes <= 0 {
		return fmt.Errorf("size %d: %w", sizeBytes, ErrParam)
	}
	if sizeBytes > c.capacityBytes {
		return fmt.Errorf("object %d bytes exceeds cache %d: %w", sizeBytes, c.capacityBytes, ErrParam)
	}
	key := cacheKey{videoID, level}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return nil
	}
	for c.usedBytes.Load()+sizeBytes > c.capacityBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent, ok := oldest.Value.(*cacheEntry)
		if !ok {
			return fmt.Errorf("corrupt cache entry: %w", ErrParam)
		}
		delete(c.items, ent.key)
		c.usedBytes.Add(-ent.size)
		c.ll.Remove(oldest)
		c.evictions.Add(1)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, size: sizeBytes})
	c.usedBytes.Add(sizeBytes)
	return nil
}

// TranscodeModel converts transcoded bits into CPU cycles.
type TranscodeModel struct {
	// CyclesPerBit is the CPU cost of transcoding one source bit
	// (default 50 cycles/bit, in line with x264 software transcode
	// measurements used in edge-computing literature).
	CyclesPerBit float64
}

// DefaultTranscodeModel returns the model used by the experiments.
func DefaultTranscodeModel() TranscodeModel { return TranscodeModel{CyclesPerBit: 50} }

// Cycles returns the CPU cycles to transcode a video segment of
// durationS seconds from srcBps down to dstBps. Transcoding up or to
// the same rate is free (served from source).
func (m TranscodeModel) Cycles(srcBps, dstBps, durationS float64) (float64, error) {
	if srcBps <= 0 || dstBps <= 0 || durationS < 0 {
		return 0, fmt.Errorf("transcode src=%v dst=%v dur=%v: %w", srcBps, dstBps, durationS, ErrParam)
	}
	if dstBps >= srcBps {
		return 0, nil
	}
	return m.CyclesPerBit * srcBps * durationS, nil
}

// Server is the edge server: cache + transcoder.
type Server struct {
	cache *Cache
	model TranscodeModel
}

// NewServer builds a server, pre-warming the cache with the top-N
// most popular videos at their highest representation, matching the
// paper's "stores popular short videos with the highest
// representation".
func NewServer(cacheBytes int64, model TranscodeModel, cat *video.Catalog, prewarmTopN int) (*Server, error) {
	c, err := NewCache(cacheBytes)
	if err != nil {
		return nil, err
	}
	if model.CyclesPerBit <= 0 {
		return nil, fmt.Errorf("cycles/bit %v: %w", model.CyclesPerBit, ErrParam)
	}
	s := &Server{cache: c, model: model}
	if cat != nil && prewarmTopN > 0 {
		for _, v := range cat.TopN(prewarmTopN) {
			top := v.HighestRep()
			size := int64(top.BitrateBps * v.DurationS / 8)
			if size <= 0 {
				size = 1
			}
			if err := c.Put(v.ID, top.Level, size); err != nil {
				// Cache smaller than one object: stop pre-warming.
				break
			}
		}
	}
	return s, nil
}

// Cache exposes the underlying cache for inspection.
func (s *Server) Cache() *Cache { return s.cache }

// Serve delivers (video, representation) for a watch of durationS
// seconds and returns the transcoding cycles consumed. Matching the
// paper's edge-server architecture, the cache holds videos at their
// highest representation only; lower rungs are transcoded on demand
// from the cached source every time they are requested (transcoded
// outputs are not retained). A request for the highest rung that
// misses the cache is fetched and cached at no compute cost.
func (s *Server) Serve(v *video.Video, rep video.Representation, durationS float64) (float64, error) {
	if v == nil {
		return 0, fmt.Errorf("nil video: %w", ErrParam)
	}
	if durationS < 0 {
		return 0, fmt.Errorf("duration %v: %w", durationS, ErrParam)
	}
	top := v.HighestRep()
	if !s.cache.Contains(v.ID, top.Level) {
		// Fetch the source from the CDN and cache it at the highest
		// representation; oversized objects are served pass-through.
		size := int64(top.BitrateBps * v.DurationS / 8)
		if size > 0 {
			if err := s.cache.Put(v.ID, top.Level, size); err != nil && !errors.Is(err, ErrParam) {
				return 0, err
			}
		}
	}
	if rep.Level == top.Level {
		return 0, nil
	}
	return s.model.Cycles(top.BitrateBps, rep.BitrateBps, durationS)
}
