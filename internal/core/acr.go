// Package core implements ACR — Amnesic Checkpointing and Recovery, the
// paper's contribution (§III). It provides the AddrMap bookkeeping buffer,
// the ACR checkpoint handler (deciding which values to omit from
// checkpoints) and the ACR recovery handler (recomputing omitted values
// along their Slices and writing them back to establish a consistent
// recovery line).
package core

import (
	"math/bits"

	"acr/internal/slice"
)

// Record is one AddrMap entry: the association between a memory address and
// the Slice (plus buffered input operands) able to recompute the value the
// address held (paper §III-A: "<memory address, Slice address>" plus the
// input-operand buffer of §II-B).
//
// Records live in the AddrMap's slab pool: pointers stay valid for the
// record's lifetime (until it is neither mapped nor pinned), matching the
// hardware structure — a fixed set of entries, not heap objects.
type Record struct {
	Addr  int64
	Slice *slice.Compiled
	// Core is the core whose store created the association; recomputation
	// during recovery runs on this core (Slices are thread-local).
	Core int
	// gen is the checkpoint generation in which the record was created.
	gen int64
	// pins counts live checkpoint-log references: a pinned record must
	// remain available until its log dies (paper §III-A: mappings must
	// remain in AddrMap as long as the corresponding checkpoint does).
	pins int
	// slot is the record's index in the slab pool, for O(1) free.
	slot int32
	// mapped reports whether the record is still the current mapping for
	// its address (it may have been superseded while pinned).
	mapped bool
}

// Pin marks the record as referenced by a live checkpoint log.
func (r *Record) Pin() { r.pins++ }

// AddrMapStats aggregates AddrMap behaviour over a run.
type AddrMapStats struct {
	Inserts          uint64 // successful associations
	Rejected         uint64 // associations dropped: map full
	SliceTooLong     uint64 // associations dropped: Slice exceeds the length cap
	CostRejected     uint64 // associations dropped by the cost policy
	PrunedAssocs     uint64 // associations dropped by the static site plan
	BoostedAssocs    uint64 // associations whose length cap the site plan raised
	Superseded       uint64 // records replaced by a newer store's record
	Lookups          uint64
	Hits             uint64 // lookups whose record recomputes the old value
	StaleMisses      uint64 // record present but value mismatch (stale)
	Aged             uint64 // records dropped by generation aging
	PeakOccupancy    int
	PeakInputWords   int
	OmittedValues    uint64 // values excluded from checkpoints
	RecomputedValues uint64 // values regenerated during recovery
}

// AddrMap is the bounded on-chip buffer associating memory addresses with
// Slices. One AddrMap serves one core group: Slices are confined to
// thread-local data (paper §III-A).
//
// The structure is allocation-free on the hot paths (Assoc, Lookup,
// Release): an open-addressed flat table of int32 slot indices keyed by
// address (linear probing, backward-shift deletion, ≤ 50% load) over a slab
// pool of Records recycled through a freelist. Records superseded or aged
// while pinned by a live checkpoint log simply stay out of the table until
// released; they hold capacity, as in the hardware.
type AddrMap struct {
	// table holds slot+1 of the record mapped at each probe position;
	// 0 marks an empty slot. len(table) is a power of two kept ≥ 2× the
	// mapped population (growTable doubles it on demand), so the load
	// factor never exceeds one half. Sizing the table by live mappings
	// instead of by capacity keeps it cache-resident: capacity scales
	// with the machine (cores × per-core budget), and a capacity-sized
	// table on a 128-core machine is megabytes of mostly-empty slots
	// whose cold misses dominate the store path. Growth only rehashes —
	// probe layout is not architectural state, so results are unchanged.
	table []int32
	shift uint // 64 - log2(len(table)), for the multiplicative hash

	// blocks is the slab pool: fixed-size chunks so record pointers are
	// stable across growth. freelist recycles freed slots; bump allocates
	// never-used ones.
	blocks    [][]Record
	blockBits uint
	freelist  []int32
	bump      int32

	mapped   int // records currently in the table
	retained int // unmapped but pinned records still holding capacity

	// slicePool recycles the Compiled shells of freed records back to the
	// compile path, so steady-state association does not allocate.
	slicePool []*slice.Compiled

	capacity   int
	gen        int64
	stats      AddrMapStats
	inputWords int
}

// NewAddrMap returns an AddrMap with room for capacity records.
func NewAddrMap(capacity int) *AddrMap {
	if capacity < 1 {
		capacity = 1
	}
	tableLen := 16
	for tableLen < 2*capacity && tableLen < 4096 {
		tableLen *= 2
	}
	blockBits := uint(bits.Len(uint(capacity - 1)))
	if blockBits < 4 {
		blockBits = 4
	}
	if blockBits > 12 {
		blockBits = 12
	}
	return &AddrMap{
		table:     make([]int32, tableLen),
		shift:     uint(64 - bits.Len(uint(tableLen-1))),
		blockBits: blockBits,
		capacity:  capacity,
	}
}

// home returns addr's preferred probe position (Fibonacci hashing: the
// multiplier is the odd fractional part of the golden ratio, scrambling
// sequential addresses across the table).
func (m *AddrMap) home(addr int64) uint64 {
	return (uint64(addr) * 0x9E3779B97F4A7C15) >> m.shift
}

// rec returns the pooled record at slot.
func (m *AddrMap) rec(slot int32) *Record {
	return &m.blocks[slot>>m.blockBits][slot&int32(1<<m.blockBits-1)]
}

// allocRecord takes a slot from the freelist or bump-allocates one,
// extending the slab pool by one block when exhausted.
func (m *AddrMap) allocRecord() *Record {
	if n := len(m.freelist); n > 0 {
		slot := m.freelist[n-1]
		m.freelist = m.freelist[:n-1]
		r := m.rec(slot)
		r.slot = slot
		return r
	}
	if int(m.bump)>>m.blockBits == len(m.blocks) {
		m.blocks = append(m.blocks, make([]Record, 1<<m.blockBits)) // slab growth, amortized over 2^blockBits records
	}
	slot := m.bump
	m.bump++
	r := m.rec(slot)
	r.slot = slot
	return r
}

// freeRecord returns rec's slot to the freelist and recycles its Slice.
func (m *AddrMap) freeRecord(rec *Record) {
	if rec.Slice != nil {
		m.recycleSlice(rec.Slice)
		rec.Slice = nil
	}
	m.freelist = append(m.freelist, rec.slot) // bounded by the slab pool, steady state reuses capacity
}

// recycleSlice offers a dead Compiled shell back to the compile path. The
// pool is bounded by the map capacity — shells in flight can never exceed
// the records that hold them — so steady-state compilation stays inside
// the pool; overflow is left to the garbage collector.
func (m *AddrMap) recycleSlice(sl *slice.Compiled) {
	if len(m.slicePool) < m.capacity {
		m.slicePool = append(m.slicePool, sl) // bounded by capacity, steady state reuses the pool's array
	}
}

// takeRecycled pops a recycled Compiled shell, or nil when the pool is
// empty (the compile path then allocates a fresh one).
func (m *AddrMap) takeRecycled() *slice.Compiled {
	if n := len(m.slicePool); n > 0 {
		sl := m.slicePool[n-1]
		m.slicePool = m.slicePool[:n-1]
		return sl
	}
	return nil
}

// lookupMapped returns the record currently mapped at addr, or nil.
func (m *AddrMap) lookupMapped(addr int64) *Record {
	mask := uint64(len(m.table) - 1)
	for i := m.home(addr); ; i = (i + 1) & mask {
		e := m.table[i]
		if e == 0 {
			return nil
		}
		if r := m.rec(e - 1); r.Addr == addr {
			return r
		}
	}
}

// tableInsert maps slot at addr's probe position. The caller guarantees
// addr is not already present; the ≤ 50% load bound guarantees a free slot.
func (m *AddrMap) tableInsert(addr int64, slot int32) {
	mask := uint64(len(m.table) - 1)
	i := m.home(addr)
	for m.table[i] != 0 {
		i = (i + 1) & mask
	}
	m.table[i] = slot + 1
}

// tableDelete unmaps addr using backward-shift deletion: subsequent probe
// chain members whose home lies at or before the vacated slot move back, so
// no tombstones accumulate and probe chains stay minimal.
func (m *AddrMap) tableDelete(addr int64) {
	mask := uint64(len(m.table) - 1)
	i := m.home(addr)
	for {
		e := m.table[i]
		if e == 0 {
			return // not present (caller bug; harmless)
		}
		if m.rec(e-1).Addr == addr {
			break
		}
		i = (i + 1) & mask
	}
	free := i
	for j := i; ; {
		j = (j + 1) & mask
		e := m.table[j]
		if e == 0 {
			break
		}
		h := m.home(m.rec(e - 1).Addr)
		// The entry at j may move into the hole iff its home position
		// precedes or equals the hole along its probe chain.
		if (j-h)&mask >= (j-free)&mask {
			m.table[free] = e
			free = j
		}
	}
	m.table[free] = 0
}

// Occupancy returns the number of records currently holding capacity
// (mapped plus pinned-retained).
func (m *AddrMap) Occupancy() int { return m.mapped + m.retained }

// Stats returns a copy of the accumulated statistics.
func (m *AddrMap) Stats() AddrMapStats { return m.stats }

// Assoc inserts or replaces the record for addr. It reports whether the
// association was accepted (the map may be full); a rejected Slice stays
// owned by the caller.
func (m *AddrMap) Assoc(core int, addr int64, sl *slice.Compiled) bool {
	old := m.lookupMapped(addr)
	if old == nil && m.Occupancy() >= m.capacity {
		m.stats.Rejected++
		return false
	}
	if 2*(m.mapped+1) > len(m.table) {
		m.growTable()
	}
	if old != nil {
		m.stats.Superseded++
		if old.Slice == sl {
			// Defensive: re-associating the identical Compiled must not
			// recycle the object being inserted.
			m.inputWords -= sl.NumInputs()
			old.Slice = nil
		}
		m.unmap(old)
	}
	rec := m.allocRecord()
	*rec = Record{Addr: addr, Slice: sl, Core: core, gen: m.gen, slot: rec.slot, mapped: true}
	m.tableInsert(addr, rec.slot)
	m.mapped++
	m.stats.Inserts++
	m.inputWords += sl.NumInputs()
	if occ := m.Occupancy(); occ > m.stats.PeakOccupancy {
		m.stats.PeakOccupancy = occ
	}
	if m.inputWords > m.stats.PeakInputWords {
		m.stats.PeakInputWords = m.inputWords
	}
	return true
}

// growTable doubles the probe table and rehashes every mapped record.
// Amortized O(1) per insertion; the rehash changes only the internal probe
// layout, never which records are mapped, so it is invisible to results.
func (m *AddrMap) growTable() {
	old := m.table
	m.table = make([]int32, 2*len(old))
	m.shift = uint(64 - bits.Len(uint(len(m.table)-1)))
	for _, e := range old {
		if e != 0 {
			m.tableInsert(m.rec(e-1).Addr, e-1)
		}
	}
}

// unmap removes rec from the address mapping, retaining it while pinned.
func (m *AddrMap) unmap(rec *Record) {
	m.tableDelete(rec.Addr)
	rec.mapped = false
	m.mapped--
	if rec.Slice != nil {
		m.inputWords -= rec.Slice.NumInputs()
	}
	if rec.pins > 0 {
		m.retained++
	} else {
		m.freeRecord(rec)
	}
}

// Lookup returns the record able to recompute old — the value addr held at
// the last checkpoint — or nil. Validity is checked by evaluating the
// Slice: a record is usable exactly when its recomputation reproduces the
// value being omitted, which is the correctness criterion for amnesic
// omission (§III-C: "whether the current value v ... is recomputable").
func (m *AddrMap) Lookup(addr, old int64, scratch []int64) *Record {
	m.stats.Lookups++
	rec := m.lookupMapped(addr)
	if rec == nil {
		return nil
	}
	if rec.Slice.Eval(scratch) != old {
		// Stale: a later, unassociated store overwrote the value the
		// Slice regenerates. Drop the mapping.
		m.stats.StaleMisses++
		m.unmap(rec)
		return nil
	}
	m.stats.Hits++
	return rec
}

// Release drops one pin from rec (its referencing log was discarded) and
// frees its capacity if the record is no longer mapped.
func (m *AddrMap) Release(rec *Record) {
	if rec.pins <= 0 {
		panic("core: Release of unpinned record")
	}
	rec.pins--
	if rec.pins == 0 && !rec.mapped {
		m.retained--
		m.freeRecord(rec)
	}
}

// NewGeneration advances the checkpoint generation and ages out records
// older than the two most recent generations (paper §III-A: AddrMap records
// mappings for the two most recent checkpoints). Pinned records survive
// into the retained population. The slab scan visits every pool slot in
// deterministic order; free and retained slots are skipped via the mapped
// flag.
func (m *AddrMap) NewGeneration() {
	m.gen++
	cutoff := m.gen - 1
	for _, blk := range m.blocks {
		for i := range blk {
			rec := &blk[i]
			if rec.mapped && rec.gen < cutoff {
				m.stats.Aged++
				m.unmap(rec)
			}
		}
	}
}

// Reset clears the map entirely (after a recovery: the hardware AddrMap is
// rebuilt as execution re-runs). All pins must have been released — the
// checkpoint manager discards its logs before resetting — because record
// slots are recycled wholesale.
func (m *AddrMap) Reset() {
	clear(m.table)
	for _, blk := range m.blocks {
		for i := range blk {
			rec := &blk[i]
			if rec.Slice != nil {
				m.recycleSlice(rec.Slice)
				rec.Slice = nil
			}
			rec.mapped = false
			rec.pins = 0
		}
	}
	m.freelist = m.freelist[:0]
	m.bump = 0
	m.mapped = 0
	m.retained = 0
	m.inputWords = 0
}

// CountOmitted and CountRecomputed update the omission statistics; they are
// invoked by the handlers so that the stats live with the AddrMap.
func (m *AddrMap) CountOmitted() { m.stats.OmittedValues++ }

// CountRecomputed records one value regenerated during recovery.
func (m *AddrMap) CountRecomputed() { m.stats.RecomputedValues++ }
