package mem

import (
	"errors"
	"testing"

	"acr/internal/energy"
)

func TestWriteBackEnergyChargedOnEviction(t *testing.T) {
	s, m := newTestSystem(1, 1<<21)
	// Dirty one line, then stream enough distinct lines through the same
	// set path to evict it from both L1 and L2; the final eviction must
	// charge a line's worth of DRAM writes beyond the fills.
	s.Store(0, 0, 1)
	before := m.Count(energy.DRAMWrite)
	// L2 is 512KB = 8192 lines; stream 3x that many distinct lines.
	for i := int64(1); i <= 3*8192; i++ {
		s.Load(0, i*8)
	}
	wrote := m.Count(energy.DRAMWrite) - before
	if wrote < uint64(s.Config().LineWords) {
		t.Errorf("dirty eviction charged %d word writes, want at least %d",
			wrote, s.Config().LineWords)
	}
}

func TestLoadEnergyScalesWithLevel(t *testing.T) {
	s, m := newTestSystem(1, 1<<20)
	e0 := m.TotalPJ()
	s.Load(0, 0) // cold: L1 + L2 + DRAM line fill
	cold := m.TotalPJ() - e0
	e1 := m.TotalPJ()
	s.Load(0, 0) // hot: L1 only
	hot := m.TotalPJ() - e1
	if cold < 20*hot {
		t.Errorf("cold load (%v pJ) should dwarf a hot one (%v pJ)", cold, hot)
	}
}

func TestCommGroupsCoverAllCores(t *testing.T) {
	s, _ := newTestSystem(8, 4096)
	s.Store(0, 0, 1)
	s.Load(3, 0)
	groups := s.CommGroups()
	union := NewCoreSet(s.NCores())
	for _, g := range groups {
		for i, w := range g {
			if union[i]&w != 0 {
				t.Fatalf("groups overlap: %b", groups)
			}
		}
		union.Or(g)
	}
	if union.Count() != s.NCores() {
		t.Fatalf("groups do not cover all cores: %v", union)
	}
}

func TestAllCores(t *testing.T) {
	for _, n := range []int{1, 4, 63, 64, 65, 128, 256} {
		s, _ := newTestSystem(n, 64)
		all := s.AllCores()
		if all.Count() != n {
			t.Errorf("AllCores(%d cores) has %d members", n, all.Count())
		}
		if !all.Has(0) || !all.Has(n-1) || all.Has(n) {
			t.Errorf("AllCores(%d cores) membership wrong: %v", n, all)
		}
	}
}

func TestTooManyCoresRejected(t *testing.T) {
	// 65 cores — the old hard cap — now construct fine; only the sanity
	// ceiling rejects, and with a typed error instead of a panic.
	if _, err := NewSystem(DefaultConfig(), 65, 64, energy.NewMeter(nil)); err != nil {
		t.Fatalf("65 cores must construct: %v", err)
	}
	_, err := NewSystem(DefaultConfig(), MaxCores+1, 64, energy.NewMeter(nil))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("expected *ConfigError for %d cores, got %v", MaxCores+1, err)
	}
}

func TestZeroWordsRejected(t *testing.T) {
	_, err := NewSystem(DefaultConfig(), 1, 0, energy.NewMeter(nil))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("expected *ConfigError for zero-word memory, got %v", err)
	}
}

func TestLogBitSetOnceAcrossCores(t *testing.T) {
	// The log bit is per word, not per core: a second core's store to
	// the same word within an interval is not a "first" update.
	s, _ := newTestSystem(2, 1024)
	_, first, _ := s.Store(0, 9, 1)
	if !first {
		t.Fatal("first store not first")
	}
	_, first, _ = s.Store(1, 9, 2)
	if first {
		t.Fatal("second core's store must not be first in the same interval")
	}
}

func TestCacheResetInvalidates(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	c.Access(5, true)
	c.Reset()
	if contains(c, 5) || c.DirtyLines() != 0 {
		t.Error("Reset left state behind")
	}
}

func TestResetCachesDropsDirtyState(t *testing.T) {
	s, _ := newTestSystem(2, 1024)
	s.Store(0, 0, 1)
	s.ResetCaches()
	if s.DirtyLines(s.AllCores()) != 0 {
		t.Error("ResetCaches left dirty lines")
	}
	if s.ReadWord(0) != 1 {
		t.Error("ResetCaches must not touch memory contents")
	}
}
