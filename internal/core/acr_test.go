package core

import (
	"testing"

	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/slice"
)

// mkSlice builds a trivial compiled Slice computing base+delta from one
// buffered input.
func mkSlice(base, delta int64) *slice.Compiled {
	return &slice.Compiled{
		Inputs: []int64{base},
		Ops:    []slice.COp{{Op: isa.ADDI, A: 0, B: -1, C: -1, Imm: delta}},
	}
}

func TestAddrMapAssocLookup(t *testing.T) {
	m := NewAddrMap(8)
	if !m.Assoc(0, 100, mkSlice(40, 2)) {
		t.Fatal("assoc rejected")
	}
	rec := m.Lookup(100, 42, nil)
	if rec == nil {
		t.Fatal("lookup missed")
	}
	if rec.Addr != 100 || rec.Core != 0 {
		t.Errorf("record = %+v", rec)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Lookups != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAddrMapStaleRecordDropped(t *testing.T) {
	m := NewAddrMap(8)
	m.Assoc(0, 100, mkSlice(40, 2)) // recomputes 42
	// The word now holds 99 (overwritten by an unassociated store):
	// lookup must miss and drop the stale mapping.
	if rec := m.Lookup(100, 99, nil); rec != nil {
		t.Fatal("stale record returned")
	}
	if m.Stats().StaleMisses != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
	if rec := m.Lookup(100, 42, nil); rec != nil {
		t.Fatal("stale record not dropped")
	}
}

func TestAddrMapCapacity(t *testing.T) {
	m := NewAddrMap(2)
	m.Assoc(0, 1, mkSlice(0, 1))
	m.Assoc(0, 2, mkSlice(0, 2))
	if m.Assoc(0, 3, mkSlice(0, 3)) {
		t.Fatal("assoc beyond capacity accepted")
	}
	if m.Stats().Rejected != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
	// Replacing an existing address is allowed at capacity.
	if !m.Assoc(0, 2, mkSlice(10, 2)) {
		t.Fatal("replacement rejected at capacity")
	}
	if m.Stats().Superseded != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestAddrMapGenerationAging(t *testing.T) {
	m := NewAddrMap(8)
	m.Assoc(0, 1, mkSlice(0, 1)) // gen 0
	m.NewGeneration()            // gen 1: record from gen 0 survives (two most recent)
	if m.Lookup(1, 1, nil) == nil {
		t.Fatal("record aged too early")
	}
	m.NewGeneration() // gen 2: gen-0 record ages out
	if m.Lookup(1, 1, nil) != nil {
		t.Fatal("record survived beyond two generations")
	}
	if m.Stats().Aged != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestPinnedRecordSurvivesAgingAndHoldsCapacity(t *testing.T) {
	m := NewAddrMap(2)
	m.Assoc(0, 1, mkSlice(0, 1))
	rec := m.Lookup(1, 1, nil)
	rec.Pin()
	m.NewGeneration()
	m.NewGeneration() // ages out of the map, but pinned: retained
	if m.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1 (retained)", m.Occupancy())
	}
	m.Assoc(0, 2, mkSlice(0, 2))
	if m.Assoc(0, 3, mkSlice(0, 3)) {
		t.Fatal("retained record must hold capacity")
	}
	m.Release(rec)
	if m.Occupancy() != 1 {
		t.Fatalf("occupancy after release = %d, want 1", m.Occupancy())
	}
	if !m.Assoc(0, 3, mkSlice(0, 3)) {
		t.Fatal("capacity not freed by release")
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	m := NewAddrMap(2)
	m.Assoc(0, 1, mkSlice(0, 1))
	rec := m.Lookup(1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic releasing unpinned record")
		}
	}()
	m.Release(rec)
}

func TestHandlerAssocGatesOnThreshold(t *testing.T) {
	tr := slice.NewTracker(1)
	meter := energy.NewMeter(nil)
	h := NewHandler(Config{Threshold: 3, MapCapacity: 16}, tr, meter)

	// Short chain: 2 ops, accepted.
	tr.OnALU(0, isa.Instr{Op: isa.LI, Rd: 1, Imm: 5})
	tr.OnALU(0, isa.Instr{Op: isa.MULI, Rd: 2, Rs: 1, Imm: 3})
	h.OnAssoc(0, 0, 100, tr.Recipe(0, 2))
	if h.AddrMap().Stats().Inserts != 1 {
		t.Fatalf("short slice not inserted: %+v", h.AddrMap().Stats())
	}

	// Long chain: 6 ops, rejected by threshold.
	for i := 0; i < 5; i++ {
		tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 2, Imm: 1})
	}
	h.OnAssoc(0, 0, 101, tr.Recipe(0, 2))
	st := h.AddrMap().Stats()
	if st.Inserts != 1 || st.SliceTooLong != 1 {
		t.Errorf("threshold gating failed: %+v", st)
	}
}

func TestHandlerOmitRecomputeRoundTrip(t *testing.T) {
	tr := slice.NewTracker(1)
	meter := energy.NewMeter(nil)
	h := NewHandler(Config{Threshold: 10, MapCapacity: 16}, tr, meter)

	tr.OnLoad(0, 1, 40)
	tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 2}) // value 42
	h.OnAssoc(0, 0, 100, tr.Recipe(0, 2))

	rec := h.Omittable(100, 42)
	if rec == nil {
		t.Fatal("42 should be omittable")
	}
	val, cycles := h.Recompute(rec)
	if val != 42 {
		t.Errorf("recomputed %d, want 42", val)
	}
	if cycles <= 0 {
		t.Errorf("recompute cycles = %d", cycles)
	}
	st := h.AddrMap().Stats()
	if st.OmittedValues != 1 || st.RecomputedValues != 1 {
		t.Errorf("stats = %+v", st)
	}
	if rec2 := h.Omittable(100, 999); rec2 != nil {
		t.Error("mismatched old value must not be omittable")
	}
}

func TestHandlerEnergyCharged(t *testing.T) {
	tr := slice.NewTracker(1)
	meter := energy.NewMeter(nil)
	h := NewHandler(Config{Threshold: 10, MapCapacity: 16}, tr, meter)
	tr.OnLoad(0, 1, 1)
	tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 1})
	h.OnAssoc(0, 0, 5, tr.Recipe(0, 2))
	if meter.Count(energy.AddrMapOp) == 0 || meter.Count(energy.SliceBufOp) == 0 {
		t.Error("assoc charged no AddrMap/slice-buffer energy")
	}
	rec := h.Omittable(5, 2)
	if rec == nil {
		t.Fatal("should be omittable")
	}
	before := meter.Count(energy.IntOp)
	h.Recompute(rec)
	if meter.Count(energy.IntOp) == before {
		t.Error("recompute charged no ALU energy")
	}
}

func TestHandlerLifecycleHooks(t *testing.T) {
	tr := slice.NewTracker(1)
	h := NewHandler(Config{Threshold: 10, MapCapacity: 16}, tr, energy.NewMeter(nil))
	tr.OnLoad(0, 1, 7)
	tr.OnALU(0, isa.Instr{Op: isa.MOV, Rd: 2, Rs: 1})
	h.OnAssoc(0, 0, 9, tr.Recipe(0, 2))
	h.OnCheckpoint()
	if h.Omittable(9, 7) == nil {
		t.Fatal("record must survive one checkpoint")
	}
	h.OnRecovery()
	if h.Omittable(9, 7) != nil {
		t.Fatal("AddrMap must be empty after recovery reset")
	}
}

func TestPeakStatsTracked(t *testing.T) {
	m := NewAddrMap(8)
	m.Assoc(0, 1, &slice.Compiled{Inputs: []int64{1, 2, 3}})
	m.Assoc(0, 2, &slice.Compiled{Inputs: []int64{4}})
	st := m.Stats()
	if st.PeakOccupancy != 2 {
		t.Errorf("peak occupancy = %d", st.PeakOccupancy)
	}
	if st.PeakInputWords != 4 {
		t.Errorf("peak input words = %d", st.PeakInputWords)
	}
}

// TestAddrMapAllocs pins Assoc, Lookup and Release allocation-free on a
// warmed map. Each cycle supersedes a pinned record — the path that
// retains it, then frees it and recycles its Slice on Release — and
// compiles nothing: the Slice comes back from the recycle pool.
func TestAddrMapAllocs(t *testing.T) {
	const capacity = 64
	m := NewAddrMap(capacity)
	for a := range int64(capacity / 2) {
		m.Assoc(0, a, mkSlice(a, 1))
	}
	// One spare shell for the first supersede; each cycle returns one.
	m.recycleSlice(mkSlice(0, 1))
	addr := int64(0)
	scratch := make([]int64, 8)
	cycle := func() {
		addr = (addr + 1) % (capacity / 2)
		rec := m.Lookup(addr, addr+1, scratch)
		if rec == nil {
			t.Fatal("lookup missed a live association")
		}
		rec.Pin()
		sl := m.takeRecycled()
		sl.Inputs[0] = addr
		if !m.Assoc(1, addr, sl) {
			t.Fatal("supersede rejected")
		}
		m.Release(rec)
	}
	for range 1000 {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("Lookup+Assoc+Release: %v allocs, want 0", n)
	}
}
