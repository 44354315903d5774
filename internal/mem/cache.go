// Package mem models the memory subsystem of the simulated machine: private
// set-associative write-back caches per core (Table I), a word-addressed
// DRAM, the per-word checkpoint log bit maintained by the directory
// controller (paper §II-A), and the inter-core communication observation the
// directory provides for coordinated local checkpointing (paper §V-E).
// DRAM, the log bits and the per-line writer tags live in fixed-size pages
// that are allocated on first write, so a machine's memory cost follows
// what its program writes, not the data it reserves.
//
// The design is functional-direct with timing-model caches, as in Sniper:
// loads and stores update memory immediately; the caches decide which
// *level* serviced an access, which determines latency and energy.
package mem

import "fmt"

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

// way packs one cache way's metadata (tag, LRU stamp, dirty bit) into a
// single slice element so an Access touches one contiguous span per set
// instead of three parallel arrays. The tag stores line+1 so the zero
// value means invalid: a fresh cache is all-zero memory and construction
// needs no initialization pass over the line array — at 256 cores that
// pass was a visible slice of machine-construction time.
type way struct {
	tag   int64 // line+1; 0 = invalid
	tick  uint64
	dirty bool
}

// Cache is a set-associative LRU write-back cache used as a timing model:
// it tracks presence and dirtiness of lines but holds no data (memory is
// always current functionally).
type Cache struct {
	sets int
	ways int
	// lines[set*ways+way].
	lines []way
	// mru[set] is the way index of the last hit or fill in the set; the
	// Access fast path probes it before scanning the set.
	mru  []int32
	tick uint64

	// dirtySets lists the sets that may hold dirty lines, so the flush
	// scans touch O(dirty sets × ways) entries instead of every line —
	// the full-array scan at every checkpoint was the dominant cost of
	// amnesic runs on wide machines, where the combined line arrays
	// outgrow the last-level cache. The list over-approximates: a
	// flagged set's dirty lines may since have been evicted, which the
	// per-line dirty bits resolve at flush time. dirtyEpoch[set] ==
	// dirtyCur marks membership (bumping dirtyCur empties the list in
	// O(1)); capacity is fixed at sets so noteDirty never reallocates.
	dirtySets  []int32
	dirtyEpoch []uint32
	dirtyCur   uint32
}

// NewCache builds a cache from cfg. Sets must be a power of two.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache sets %d not a positive power of two (cfg %+v)", sets, cfg))
	}
	return &Cache{sets: sets, ways: cfg.Ways,
		lines: make([]way, sets*cfg.Ways), mru: make([]int32, sets),
		dirtySets:  make([]int32, 0, sets),
		dirtyEpoch: make([]uint32, sets),
		dirtyCur:   1,
	}
}

// noteDirty flags set as possibly holding dirty lines.
//
//acr:noalloc
func (c *Cache) noteDirty(set int) {
	if c.dirtyEpoch[set] == c.dirtyCur {
		return
	}
	c.dirtyEpoch[set] = c.dirtyCur
	c.dirtySets = append(c.dirtySets, int32(set)) //acr:alloc-ok capacity fixed at sets in NewCache; each set appends at most once per epoch
}

// clearDirtySets empties the dirty-set list.
func (c *Cache) clearDirtySets() {
	c.dirtySets = c.dirtySets[:0]
	c.dirtyCur++
	if c.dirtyCur == 0 { // epoch wrapped: hard-clear stale stamps
		clear(c.dirtyEpoch)
		c.dirtyCur = 1
	}
}

// Access looks up line; on miss it allocates, evicting the LRU way.
// It returns whether the access hit, the evicted line (-1 if none), and
// whether that line was dirty — the caller writes it back to the next
// level. If markDirty is set the line is marked dirty (store or
// fill-for-write).
//
// The most-recently-used way of the set is probed before the scan:
// temporal locality makes it the common hit, and skipping the scan does
// not change which way would have hit (tags are unique within a set) nor
// any LRU decision (victim choice reads the same tick values either way).
func (c *Cache) Access(line int64, markDirty bool) (hit bool, evicted int64, evictedDirty bool) {
	key := line + 1
	set := int(uint64(line) & uint64(c.sets-1))
	base := set * c.ways
	c.tick++
	if m := &c.lines[base+int(c.mru[set])]; m.tag == key {
		m.tick = c.tick
		if markDirty {
			m.dirty = true
			c.noteDirty(set)
		}
		return true, -1, false
	}
	victim, victimTick := base, c.lines[base].tick
	for w := 0; w < c.ways; w++ {
		i := base + w
		ln := &c.lines[i]
		if ln.tag == key {
			ln.tick = c.tick
			if markDirty {
				ln.dirty = true
				c.noteDirty(set)
			}
			c.mru[set] = int32(w)
			return true, -1, false
		}
		if ln.tick < victimTick {
			victim, victimTick = i, ln.tick
		}
	}
	v := &c.lines[victim]
	evicted = v.tag - 1
	evictedDirty = evicted >= 0 && v.dirty
	v.tag = key
	v.dirty = markDirty
	v.tick = c.tick
	if markDirty {
		c.noteDirty(set)
	}
	c.mru[set] = int32(victim - base)
	return false, evicted, evictedDirty
}

// Contains reports whether line is present (no LRU update).
func (c *Cache) Contains(line int64) bool {
	key := line + 1
	set := int(uint64(line) & uint64(c.sets-1))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].tag == key {
			return true
		}
	}
	return false
}

// FlushDirty marks every dirty line clean and returns how many lines were
// dirty. Used when establishing a checkpoint (all dirty data is written
// back to memory, paper §II-A). Only the flagged dirty sets are scanned,
// so the cost is proportional to the interval's write working set, not
// the cache size.
func (c *Cache) FlushDirty() int {
	n := 0
	for _, set := range c.dirtySets {
		base := int(set) * c.ways
		for w := 0; w < c.ways; w++ {
			ln := &c.lines[base+w]
			if ln.dirty && ln.tag > 0 {
				n++
				ln.dirty = false
			}
		}
	}
	c.clearDirtySets()
	return n
}

// DirtyLines returns the number of dirty lines without cleaning them.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, set := range c.dirtySets {
		base := int(set) * c.ways
		for w := 0; w < c.ways; w++ {
			if c.lines[base+w].dirty && c.lines[base+w].tag > 0 {
				n++
			}
		}
	}
	return n
}

// Reset invalidates the whole cache.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.mru)
	c.tick = 0
	c.clearDirtySets()
}
