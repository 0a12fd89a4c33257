// This file encodes the cache's full state — entries in recency
// order plus the hit/miss counters — for session checkpoints. The
// cache is the only edge-server state that survives an interval
// boundary (cycle accounting is reset at the start of every
// interval), so restoring it restores the server.

package edge

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// EncodeState appends the cache's state: the entry count, each entry's
// video id, level and size from most- to least-recently used, then the
// hit and miss counters.
func (c *Cache) EncodeState(e *checkpoint.Enc) {
	e.U32(uint32(c.ll.Len()))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		e.Int(ent.key.videoID)
		e.Int(ent.key.level)
		e.I64(ent.size)
	}
	hits, misses := c.Counts()
	e.Int(hits)
	e.Int(misses)
}

// DecodeState replaces the cache's contents and counters with bytes
// EncodeState wrote. Every entry must have a positive size and appear
// once, the entries must fit the capacity — a restore never silently
// evicts — and the counters must not be negative; anything else is
// checkpoint.ErrCorrupt, and leaves the cache partly overwritten.
func (c *Cache) DecodeState(d *checkpoint.Dec) error {
	n := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	c.Drop()
	for i := uint32(0); i < n; i++ {
		key := cacheKey{videoID: d.Int(), level: d.Int()}
		size := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		switch {
		case size <= 0:
			return fmt.Errorf("cache entry (%d,%d) size %d: %w", key.videoID, key.level, size, checkpoint.ErrCorrupt)
		case size > c.capacityBytes-c.usedBytes.Load():
			return fmt.Errorf("cache entry (%d,%d) of %d bytes past capacity %d: %w", key.videoID, key.level, size, c.capacityBytes, checkpoint.ErrCorrupt)
		case c.items[key] != nil:
			return fmt.Errorf("cache duplicate entry (%d,%d): %w", key.videoID, key.level, checkpoint.ErrCorrupt)
		}
		c.items[key] = c.ll.PushBack(&cacheEntry{key: key, size: size})
		c.usedBytes.Add(size)
	}
	hits, misses := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if hits < 0 || misses < 0 {
		return fmt.Errorf("cache counters %d/%d: %w", hits, misses, checkpoint.ErrCorrupt)
	}
	c.hits.Store(int64(hits))
	c.misses.Store(int64(misses))
	return nil
}

// Drop discards every cached entry — the cell's cache contents are
// gone with the failed node — while keeping the hit/miss counters:
// those lookups were really served and still belong in the run's
// aggregate cache statistics. Dropped entries are not evictions.
func (c *Cache) Drop() {
	c.ll.Init()
	clear(c.items)
	c.usedBytes.Store(0)
}
