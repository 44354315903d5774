package mem

import (
	"runtime"
	"testing"

	"acr/internal/energy"
)

// tickWay is one way of the reference cache: tag (line+1; 0 = invalid),
// LRU stamp and dirty bit.
type tickWay struct {
	tag   int64
	tick  uint64
	dirty bool
}

// tickCache is the reference model for Cache: the tick-stamped LRU cache
// the recency-ordered one replaced. Every access stamps its way with a
// fresh tick, and a miss evicts the lowest-index way with the smallest
// stamp; each set also remembers its most recently used way and probes it
// before the scan. Its dirty-set list is kept as a plain membership slice.
type tickCache struct {
	sets, ways int
	lines      []tickWay
	mru        []int32
	tick       uint64
	dirtySet   []bool
}

func newTickCache(cfg CacheConfig) *tickCache {
	sets := cfg.Sets()
	return &tickCache{sets: sets, ways: cfg.Ways,
		lines: make([]tickWay, sets*cfg.Ways), mru: make([]int32, sets),
		dirtySet: make([]bool, sets)}
}

func (c *tickCache) access(line int64, markDirty bool) (hit bool, evicted int64, evictedDirty bool) {
	key := line + 1
	set := int(uint64(line) & uint64(c.sets-1))
	base := set * c.ways
	c.tick++
	if markDirty {
		c.dirtySet[set] = true
	}
	if m := &c.lines[base+int(c.mru[set])]; m.tag == key {
		m.tick = c.tick
		m.dirty = m.dirty || markDirty
		return true, -1, false
	}
	victim, victimTick := base, c.lines[base].tick
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.tag == key {
			ln.tick = c.tick
			ln.dirty = ln.dirty || markDirty
			c.mru[set] = int32(w)
			return true, -1, false
		}
		if ln.tick < victimTick {
			victim, victimTick = base+w, ln.tick
		}
	}
	v := &c.lines[victim]
	evicted = v.tag - 1
	evictedDirty = evicted >= 0 && v.dirty
	*v = tickWay{tag: key, tick: c.tick, dirty: markDirty}
	c.mru[set] = int32(victim - base)
	return false, evicted, evictedDirty
}

func (c *tickCache) dirtyLines(flush bool) int {
	n := 0
	for set, flagged := range c.dirtySet {
		if !flagged {
			continue
		}
		for w := 0; w < c.ways; w++ {
			if ln := &c.lines[set*c.ways+w]; ln.dirty && ln.tag > 0 {
				n++
				ln.dirty = !flush
			}
		}
		c.dirtySet[set] = !flush
	}
	return n
}

func (c *tickCache) reset() {
	clear(c.lines)
	clear(c.mru)
	clear(c.dirtySet)
	c.tick = 0
}

// contains reports whether line is present in c, without an LRU update.
func contains(c *Cache, line int64) bool {
	key := uint64(line+1) << 1
	set := int(uint64(line) & uint64(c.sets-1))
	for _, v := range c.lines[set*c.ways : (set+1)*c.ways] {
		if v&^1 == key {
			return true
		}
	}
	return false
}

// FuzzCacheLRU drives Access, FlushDirty, DirtyLines and Reset sequences
// through Cache and the tick-stamped reference on geometries of 1–16 ways
// and 1–64 sets, plus the Table I L1D and L2, and requires every hit,
// eviction, dirty-eviction flag and dirty-line count to agree.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0x13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		g := in.next()
		var cfg CacheConfig
		switch g % 8 {
		case 6:
			cfg = DefaultConfig().L1D
		case 7:
			cfg = DefaultConfig().L2
		default:
			ways, sets := 1+int(g>>3)%16, 1<<(in.next()%7)
			cfg = CacheConfig{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64}
		}
		c, ref := NewCache(cfg), newTickCache(cfg)
		sets := int64(cfg.Sets())
		// Lines come mostly from the first, middle and last set, with tags
		// just past the associativity, so sets fill, evict and re-hit.
		span := int64(cfg.Ways + 2)
		for step := 0; len(in) > 0 && step < 4000; step++ {
			switch op := in.next(); {
			case op < 200:
				var set int64
				switch op % 4 {
				case 1:
					set = sets / 2
				case 2:
					set = sets - 1
				case 3:
					set = int64(in.u16()) % sets
				}
				line := set + sets*(int64(in.next())%span)
				store := op&8 != 0
				hit, ev, evDirty := c.Access(line, store)
				wh, wev, wevDirty := ref.access(line, store)
				if hit != wh || ev != wev || evDirty != wevDirty {
					t.Fatalf("step %d: Access(%d, %v) = %v, %d, %v; want %v, %d, %v",
						step, line, store, hit, ev, evDirty, wh, wev, wevDirty)
				}
			case op < 220:
				if got, want := c.DirtyLines(), ref.dirtyLines(false); got != want {
					t.Fatalf("step %d: DirtyLines = %d, want %d", step, got, want)
				}
			case op < 245:
				if got, want := c.FlushDirty(), ref.dirtyLines(true); got != want {
					t.Fatalf("step %d: FlushDirty = %d, want %d", step, got, want)
				}
			default:
				c.Reset()
				ref.reset()
			}
		}
		if got, want := c.DirtyLines(), ref.dirtyLines(false); got != want {
			t.Fatalf("final DirtyLines = %d, want %d", got, want)
		}
	})
}

// TestCacheAccessAllocs pins the cache allocation-free: a hit, a miss that
// evicts a dirty line, and a flush.
func TestCacheAccessAllocs(t *testing.T) {
	c := NewCache(DefaultConfig().L1D)
	c.Access(3, true)
	if n := testing.AllocsPerRun(100, func() { c.Access(3, false) }); n != 0 {
		t.Errorf("Access hit: %v allocs, want 0", n)
	}
	sets := int64(c.sets)
	line := int64(0)
	miss := func() {
		line += sets
		if hit, _, evDirty := c.Access(line, true); hit || (line > int64(c.ways)*sets && !evDirty) {
			t.Fatalf("Access(%d): hit %v, dirty eviction %v; want a miss evicting a dirty line", line, hit, evDirty)
		}
	}
	for i := 0; i < c.ways; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("Access miss with a dirty eviction: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Access(line, true); c.FlushDirty() }); n != 0 {
		t.Errorf("FlushDirty: %v allocs, want 0", n)
	}
}

// TestWideSystemFootprint bounds what a 64-core Table I memory system
// allocates at construction: it is almost all cache ways, one word each
// (64 × (4 KiB L1D + 64 KiB L2) ≈ 4.3 MiB).
func TestWideSystemFootprint(t *testing.T) {
	const limit = 5 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := MustNewSystem(DefaultConfig(), 64, 1<<20, energy.NewMeter(nil))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("64-core NewSystem allocated %.1f MiB, want ≤ %.1f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}
