// Package cache implements the set-associative, write-back caches of the
// host GPU (per-SM 16 KB L1D and shared 1 MB 16-way L2, Table IV). The
// model is structural — hit/miss outcomes, LRU replacement, dirty
// eviction tracking — with timing applied by the GPU model. Addresses in
// the PIM region never enter these caches: GraphPIM-style offloading
// allocates its targets in an uncacheable region, which both avoids
// coherence traffic for PIM instructions and gives the non-offloaded
// baseline its cache-pollution behaviour.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// L1Config is the per-SM 16 KB L1D of Table IV (64 B lines, 4-way).
func L1Config() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4} }

// L2Config is the shared 1 MB 16-way L2 of Table IV.
func L2Config() Config { return Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16} }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size", c.SizeBytes)
	case bits.OnesCount(uint(c.Sets())) != 1:
		return fmt.Errorf("cache: %d sets not a power of two", c.Sets())
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// Cache is a set-associative write-back cache. Not safe for concurrent
// use — the simulation is single-threaded.
type Cache struct {
	cfg       Config
	sets      [][]way
	lineShift uint
	setShift  uint // log2 of the set count: line >> setShift is the tag
	setMask   uint64
	clock     uint64
	stats     Stats
}

// New builds a cache; it panics on an invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:       cfg,
		sets:      make([][]way, cfg.Sets()),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets()))),
		setMask:   uint64(cfg.Sets() - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) locate(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> c.setShift
}

// Access looks up addr. On a hit it refreshes LRU state and, for writes,
// marks the line dirty. It reports whether the access hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	set, tag := c.locate(addr)
	c.clock++
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			w.lru = c.clock
			if write {
				w.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains reports whether addr's line is resident, without touching LRU
// or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts addr's line (after a miss was serviced), evicting the LRU
// way if the set is full. It returns the evicted line's address and
// dirtiness when a valid line was displaced.
//
// The victim is the last invalid way, else the first least-recently-used
// one, chosen in the same pass that looks for the line.
func (c *Cache) Fill(addr uint64, dirty bool) (evictedAddr uint64, evictedDirty, hasVictim bool) {
	set, tag := c.locate(addr)
	c.clock++
	c.stats.Fills++
	ways := c.sets[set]
	victim, oldest, free := 0, uint64(math.MaxUint64), false
	for i := range ways {
		w := &ways[i]
		if !w.valid {
			victim, free = i, true
			continue
		}
		if w.tag == tag {
			// Already present (e.g. refilled by a racing access path):
			// just update state.
			w.dirty = w.dirty || dirty
			w.lru = c.clock
			return 0, false, false
		}
		if !free && w.lru < oldest {
			victim, oldest = i, w.lru
		}
	}
	w := &ways[victim]
	if w.valid {
		c.stats.Evictions++
		if w.dirty {
			c.stats.Writebacks++
		}
		evictedAddr = c.reconstruct(set, w.tag)
		evictedDirty = w.dirty
		hasVictim = true
	}
	*w = way{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	return evictedAddr, evictedDirty, hasVictim
}

func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	return ((tag << c.setShift) | uint64(set)) << c.lineShift
}

// Invalidate drops addr's line, returning whether it was present and
// dirty (the caller owns any needed writeback).
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.locate(addr)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			wasDirty = w.dirty
			*w = way{}
			return wasDirty, true
		}
	}
	return false, false
}

// ResidentLines returns the number of valid lines (for occupancy tests).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}
