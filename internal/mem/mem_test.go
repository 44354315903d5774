package mem

import (
	"testing"
	"testing/quick"

	"acr/internal/energy"
)

func newTestSystem(nCores, words int) (*System, *energy.Meter) {
	m := energy.NewMeter(nil)
	return MustNewSystem(DefaultConfig(), nCores, words, m), m
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	hit, _, _ := c.Access(5, false)
	if hit {
		t.Fatal("first access must miss")
	}
	hit, _, _ = c.Access(5, false)
	if !hit {
		t.Fatal("second access must hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 8 sets: lines 0, 8, 16 map to set 0.
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Access(0, false)
	c.Access(8, false)
	c.Access(0, false)  // 0 now MRU; 8 is LRU
	c.Access(16, false) // evicts 8
	if !contains(c, 0) || !contains(c, 16) || contains(c, 8) {
		t.Errorf("LRU eviction wrong: contains(0)=%v contains(8)=%v contains(16)=%v",
			contains(c, 0), contains(c, 8), contains(c, 16))
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Access(0, true) // dirty
	c.Access(8, false)
	_, ev, evDirty := c.Access(16, false) // evicts 0 (dirty)
	if !evDirty || ev != 0 {
		t.Errorf("evicting a dirty line must report it: ev=%d dirty=%v", ev, evDirty)
	}
	_, ev, evDirty = c.Access(0, false) // evicts 8 (clean)
	if evDirty || ev != 8 {
		t.Errorf("evicting a clean line: ev=%d dirty=%v", ev, evDirty)
	}
}

func TestCacheFlushDirty(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Access(0, true)
	c.Access(1, true)
	c.Access(2, false)
	if got := c.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines = %d, want 2", got)
	}
	if got := c.FlushDirty(); got != 2 {
		t.Fatalf("FlushDirty = %d, want 2", got)
	}
	if got := c.DirtyLines(); got != 0 {
		t.Fatalf("DirtyLines after flush = %d", got)
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-power-of-two sets")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 3 * 64, Ways: 1, LineBytes: 64})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	s, _ := newTestSystem(2, 1024)
	old, first, _ := s.Store(0, 100, 42)
	if old != 0 || !first {
		t.Errorf("Store: old=%d first=%v", old, first)
	}
	v, _ := s.Load(1, 100)
	if v != 42 {
		t.Errorf("Load = %d, want 42", v)
	}
	old, first, _ = s.Store(0, 100, 7)
	if old != 42 || first {
		t.Errorf("second Store: old=%d first=%v, want 42,false", old, first)
	}
}

func TestLogBitPerInterval(t *testing.T) {
	s, _ := newTestSystem(1, 1024)
	_, first, _ := s.Store(0, 5, 1)
	if !first {
		t.Fatal("first store must report first=true")
	}
	_, first, _ = s.Store(0, 5, 2)
	if first {
		t.Fatal("second store same interval must report first=false")
	}
	s.NewInterval(s.AllCores(), true)
	_, first, _ = s.Store(0, 5, 3)
	if !first {
		t.Fatal("store after new interval must report first=true again")
	}
}

func TestCommunicationObservation(t *testing.T) {
	s, _ := newTestSystem(4, 4096)
	// Core 0 writes line 0, core 1 reads it: edge (0,1).
	s.Store(0, 0, 11)
	s.Load(1, 1) // same line (line words = 8)
	if !s.CommSet(1).Has(0) || !s.CommSet(0).Has(1) {
		t.Errorf("expected comm edge 0<->1: set0=%v set1=%v", s.CommSet(0), s.CommSet(1))
	}
	// Core 2 and 3 don't communicate.
	s.Store(2, 2000, 5)
	s.Load(2, 2000)
	groups := s.CommGroups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 groups {0,1},{2},{3}", groups)
	}
	if groups[0][0] != 0b0011 || groups[1][0] != 0b0100 || groups[2][0] != 0b1000 {
		t.Errorf("groups = %b", groups)
	}
}

func TestCommunicationIntervalScoped(t *testing.T) {
	s, _ := newTestSystem(2, 1024)
	s.Store(0, 0, 1)
	s.NewInterval(s.AllCores(), true)
	// Write happened last interval: reading it now is NOT communication
	// for this interval's coordination purposes.
	s.Load(1, 0)
	if !s.CommSet(1).Empty() {
		t.Errorf("stale write counted as communication: %v", s.CommSet(1))
	}
}

func TestCommGroupsTransitive(t *testing.T) {
	s, _ := newTestSystem(8, 8192)
	// Chain: 0->1->2 communicate; 3..7 isolated.
	s.Store(0, 0, 1)
	s.Load(1, 0)
	s.Store(1, 512, 2)
	s.Load(2, 512)
	groups := s.CommGroups()
	if groups[0][0] != 0b111 {
		t.Errorf("transitive group = %b, want 0b111", groups[0][0])
	}
	if len(groups) != 1+5 {
		t.Errorf("got %d groups, want 6", len(groups))
	}
}

func TestLocalNewIntervalClearsOnlyGroupBits(t *testing.T) {
	s, _ := newTestSystem(2, 1024)
	s.Store(0, 8, 1)   // line 1, written by core 0
	s.Store(1, 512, 2) // line 64, written by core 1
	// Local checkpoint of group {core 0} only.
	g := NewCoreSet(2)
	g.Add(0)
	s.NewInterval(g, false)
	_, first, _ := s.Store(0, 8, 3)
	if !first {
		t.Error("core-0 word should have been cleared by local interval")
	}
	_, first, _ = s.Store(1, 512, 4)
	if first {
		t.Error("core-1 word must keep its log bit across core-0's local checkpoint")
	}
}

func TestFlushDirtyCountsAndCharges(t *testing.T) {
	s, m := newTestSystem(2, 4096)
	s.Store(0, 0, 1)
	s.Store(0, 100, 2)
	s.Store(1, 200, 3)
	before := m.Count(energy.DRAMWrite)
	n := s.FlushDirty(s.AllCores())
	if n != 3 {
		t.Errorf("FlushDirty = %d lines, want 3", n)
	}
	wrote := m.Count(energy.DRAMWrite) - before
	if wrote != uint64(3*s.Config().LineWords) {
		t.Errorf("flush charged %d word writes, want %d", wrote, 3*s.Config().LineWords)
	}
	if s.DirtyLines(s.AllCores()) != 0 {
		t.Error("dirty lines remain after flush")
	}
}

func TestAccessLatencies(t *testing.T) {
	s, _ := newTestSystem(1, 1<<20)
	cfg := s.Config()
	_, lat := s.Load(0, 0)
	if lat != cfg.DRAMCycles {
		t.Errorf("cold load latency = %d, want DRAM %d", lat, cfg.DRAMCycles)
	}
	_, lat = s.Load(0, 0)
	if lat != cfg.L1HitCycles {
		t.Errorf("hot load latency = %d, want L1 %d", lat, cfg.L1HitCycles)
	}
	// Evict from L1 by touching many lines mapping everywhere, then the
	// original line should be an L2 hit.
	for i := int64(1); i <= 1024; i++ {
		s.Load(0, i*8)
	}
	_, lat = s.Load(0, 0)
	if lat != cfg.L2HitCycles {
		t.Errorf("L2 load latency = %d, want %d", lat, cfg.L2HitCycles)
	}
}

func TestTransferCycles(t *testing.T) {
	s, _ := newTestSystem(8, 1024) // 2 controllers
	if s.Controllers() != 2 {
		t.Fatalf("controllers = %d, want 2", s.Controllers())
	}
	c1 := s.TransferCycles(1000)
	c2 := s.TransferCycles(2000)
	if c2 <= c1 {
		t.Error("transfer time must grow with words")
	}
	if s.TransferCycles(0) != 0 {
		t.Error("zero words must take zero time")
	}
	s4, _ := newTestSystem(32, 1024) // 8 controllers
	if got := s4.TransferCycles(1000); got >= c1 {
		t.Errorf("more controllers must be faster: %d vs %d", got, c1)
	}
}

func TestWriteWordBypassesLogBits(t *testing.T) {
	s, _ := newTestSystem(1, 64)
	s.WriteWord(3, 99)
	if s.ReadWord(3) != 99 {
		t.Error("WriteWord/ReadWord round trip failed")
	}
	_, first, _ := s.Store(0, 3, 1)
	if !first {
		t.Error("WriteWord must not set log bits")
	}
}

func TestStoreOldValueProperty(t *testing.T) {
	// Property: Store always returns the previous content of the word.
	s, _ := newTestSystem(1, 256)
	shadow := make([]int64, 256)
	f := func(addr uint8, val int64) bool {
		a := int64(addr)
		old, _, _ := s.Store(0, a, val)
		ok := old == shadow[a]
		shadow[a] = val
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s, _ := newTestSystem(1, 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range address")
		}
	}()
	s.Load(0, 16)
}
