// Package mem models the memory subsystem of the simulated machine: private
// set-associative write-back caches per core (Table I), a word-addressed
// DRAM, the per-word checkpoint log bit maintained by the directory
// controller (paper §II-A), and the inter-core communication observation the
// directory provides for coordinated local checkpointing (paper §V-E).
// DRAM, the log bits and the per-line writer tags live in fixed-size pages
// that are allocated on first write, so a machine's memory cost follows
// what its program writes, not the data it reserves. A cache stores one
// word per way, so a core's Table I L1D and L2 take 68 KiB.
//
// The design is functional-direct with timing-model caches, as in Sniper:
// loads and stores update memory immediately; the caches decide which
// *level* serviced an access, which determines latency and energy.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Lines returns the total number of lines.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.Lines() / c.Ways }

// Cache is a set-associative LRU write-back cache used as a timing model:
// it tracks presence and dirtiness of lines but holds no data (memory is
// always current functionally).
//
// Each way is one word, (line+1)<<1 | dirty, so the zero word is an
// invalid way and a fresh cache is all-zero memory. A set keeps its ways
// in recency order, most recently used first: a hit moves its way to the
// front, and a miss evicts the last way and fills at the front. A zero way
// is never moved forward, so invalid ways sit at the tail and the last way
// is an invalid one whenever the set has any — the victim a tick-stamped
// LRU picks, with no stamps to store or scan.
type Cache struct {
	sets int
	ways int
	// lines[set*ways : (set+1)*ways] is one set, in recency order.
	lines []uint64
	// dirty has a bit set for each set that may hold dirty lines, so the
	// flush scans touch the interval's write working set, not every line.
	// It over-approximates: a flagged set's dirty lines may since have
	// been evicted, which the per-way dirty bits resolve at flush time.
	dirty []uint64
}

// NewCache builds a cache from cfg. Sets must be a power of two.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache sets %d not a positive power of two (cfg %+v)", sets, cfg))
	}
	return &Cache{sets: sets, ways: cfg.Ways,
		lines: make([]uint64, sets*cfg.Ways),
		dirty: make([]uint64, (sets+63)/64),
	}
}

// Access looks up line; on miss it allocates, evicting the LRU way.
// It returns whether the access hit, the evicted line (-1 if none), and
// whether that line was dirty — the caller writes it back to the next
// level. If markDirty is set the line is marked dirty (store or
// fill-for-write).
func (c *Cache) Access(line int64, markDirty bool) (hit bool, evicted int64, evictedDirty bool) {
	key := uint64(line+1) << 1
	set := int(uint64(line) & uint64(c.sets-1))
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	var d uint64
	if markDirty {
		d = 1
		c.dirty[set>>6] |= 1 << uint(set&63)
	}
	// The front way is the common hit, and it has nothing to move.
	if v := ways[0]; v&^1 == key {
		ways[0] = v | d
		return true, -1, false
	}
	for w := 1; w < len(ways); w++ {
		if v := ways[w]; v&^1 == key {
			copy(ways[1:w+1], ways[:w])
			ways[0] = v | d
			return true, -1, false
		}
	}
	v := ways[len(ways)-1]
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = key | d
	return false, int64(v>>1) - 1, v&1 != 0
}

// FlushDirty marks every dirty line clean and returns how many lines were
// dirty. Used when establishing a checkpoint (all dirty data is written
// back to memory, paper §II-A). Only the flagged dirty sets are scanned.
func (c *Cache) FlushDirty() int {
	n := 0
	c.eachDirtySet(func(ways []uint64) {
		for w, v := range ways {
			n += int(v & 1)
			ways[w] = v &^ 1
		}
	})
	clear(c.dirty)
	return n
}

// DirtyLines returns the number of dirty lines without cleaning them.
func (c *Cache) DirtyLines() int {
	n := 0
	c.eachDirtySet(func(ways []uint64) {
		for _, v := range ways {
			n += int(v & 1)
		}
	})
	return n
}

// eachDirtySet calls fn with the ways of every set flagged in dirty.
func (c *Cache) eachDirtySet(fn func(ways []uint64)) {
	for i, mask := range c.dirty {
		for mask != 0 {
			set := i<<6 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			fn(c.lines[set*c.ways : (set+1)*c.ways])
		}
	}
}

// Reset invalidates the whole cache.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.dirty)
}
