package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"acr/internal/energy"
)

// Config describes the memory subsystem, defaulting to the paper's Table I.
type Config struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig
	// LineWords is the cache line size in 64-bit words.
	LineWords int
	// Latencies in core cycles at 1.09 GHz (Table I: L1 3.66 ns, L2
	// 24.77 ns, main memory 120 ns). L1 hits are charged one cycle: the
	// 4-stage load pipeline is fully overlapped in the in-order model.
	L1HitCycles int64
	L2HitCycles int64
	DRAMCycles  int64
	// WordsPerCycle is the sustained bandwidth of one memory controller
	// in 64-bit words per core cycle (Table I: 7.6 GB/s at 1.09 GHz ≈
	// 0.87 words/cycle).
	WordsPerCycle float64
	// CoresPerController: one memory controller per 4 cores (Table I).
	CoresPerController int
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		L1I:                CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64},
		L1D:                CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:                 CacheConfig{SizeBytes: 512 << 10, Ways: 8, LineBytes: 64},
		LineWords:          8,
		L1HitCycles:        1,
		L2HitCycles:        27,
		DRAMCycles:         131,
		WordsPerCycle:      0.87,
		CoresPerController: 4,
	}
}

// MaxCores is the sanity ceiling on the simulated core count. It bounds
// nothing architectural — the directory's per-line last-writer tags and the
// multi-word comm bitsets scale past it — but catches configs that would
// allocate absurd state.
const MaxCores = 4096

// ConfigError reports an invalid memory-system or machine-scale
// configuration. sim.New surfaces it unwrapped so callers can distinguish
// configuration mistakes from runtime failures.
type ConfigError struct {
	Reason string
}

func (e *ConfigError) Error() string { return "mem: invalid config: " + e.Reason }

// AddressError reports a load or store outside data memory. Load and Store
// panic with it — the access path carries no error return — and
// sim.Machine.Run recovers exactly this type into an error.
type AddressError struct {
	Addr  int64
	Words int
}

func (e *AddressError) Error() string {
	return fmt.Sprintf("mem: address %d out of range [0,%d)", e.Addr, e.Words)
}

// coreCaches is the private cache stack of one core.
type coreCaches struct {
	l1d *Cache
	l2  *Cache
}

// LevelStats counts one cache level's activity for one core. Writebacks
// counts dirty victims migrated to the next level down (L1→L2, L2→DRAM).
type LevelStats struct {
	Hits, Misses, Writebacks int64
}

// CoreStats aggregates the private cache stack activity of one core.
type CoreStats struct {
	L1D, L2 LevelStats
	// Fills counts line fills from DRAM (L2 misses serviced by memory).
	Fills int64
}

// Stats is the whole-hierarchy activity summary. The counters are
// maintained unconditionally — they are plain increments on paths that
// already charge energy — and are pure observation: reading them has no
// timing or energy effect, so results stay bit-identical whether or not
// anything consumes them.
type Stats struct {
	// PerCore holds cache-stack counters indexed by core id.
	PerCore []CoreStats
	// CommEdges counts directory communication observations: accesses to a
	// line another core wrote within the current checkpoint interval (the
	// coherence traffic coordinated-local checkpointing keys off, §V-E).
	CommEdges int64
	// LogBitSets counts first-store log-bit transitions — the directory
	// traffic that triggers checkpoint logging (§II-A).
	LogBitSets int64
	// FlushedLines counts dirty lines written back at checkpoint
	// establishment.
	FlushedLines int64
}

// System is the whole-machine memory subsystem: a directory in front of
// word-addressed DRAM. DRAM and the directory state are one table of
// fixed-size pages: each page holds its words, one log bit per word and
// one last-writer tag per line. A page is allocated by the first store (or
// nonzero WriteWord) to it; until then it reads as zero and has no writer,
// and loads from it allocate nothing. Bandwidth is modelled as uniformly
// interleaved across the Table I controllers (TransferCycles), so no state
// is split per controller.
type System struct {
	cfg    Config
	nCores int
	meter  *energy.Meter

	words int
	// pages[i] holds words [i*pageWords, (i+1)*pageWords), nil until
	// written; touched lists the indices of the allocated pages in
	// ascending order, so the interval scans visit only those.
	pages   []*page
	touched []int32
	// A line is 1<<lineShift words; lineMask maps a line number to its
	// index within its page.
	lineShift   uint
	lineMask    int64
	curInterval int32

	// comm is the per-core communication bitset for the current interval:
	// row c (commW words at comm[c*commW:]) holds the cores with which c
	// communicated (read a line another core wrote this interval, or
	// overwrote such a line).
	commW int
	comm  []uint64

	caches []coreCaches
	stats  Stats

	// allCores is the full core set, built once; AllCores returns it and
	// callers treat it as read-only.
	allCores CoreSet
}

// NewSystem builds a memory system with the given number of data words.
// Invalid scale parameters return a *ConfigError rather than panicking, so
// callers can tell configuration mistakes from runtime failures.
func NewSystem(cfg Config, nCores, words int, meter *energy.Meter) (*System, error) {
	if nCores <= 0 {
		return nil, &ConfigError{Reason: fmt.Sprintf("core count %d must be positive", nCores)}
	}
	if nCores > MaxCores {
		return nil, &ConfigError{Reason: fmt.Sprintf("%d cores exceed the %d-core sanity ceiling", nCores, MaxCores)}
	}
	if words <= 0 {
		return nil, &ConfigError{Reason: "non-positive memory size"}
	}
	if cfg.LineWords <= 0 || pageWords%cfg.LineWords != 0 {
		return nil, &ConfigError{Reason: fmt.Sprintf("line size %d words must divide the %d-word page", cfg.LineWords, pageWords)}
	}
	s := &System{
		cfg:       cfg,
		nCores:    nCores,
		meter:     meter,
		words:     words,
		pages:     make([]*page, (words+pageWords-1)/pageWords),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
		lineMask:  int64(pageWords/cfg.LineWords - 1),
		commW:     (nCores + 63) / 64,
		caches:    make([]coreCaches, nCores),
	}
	s.comm = make([]uint64, nCores*s.commW)
	for i := range s.caches {
		s.caches[i] = coreCaches{l1d: NewCache(cfg.L1D), l2: NewCache(cfg.L2)}
	}
	s.stats.PerCore = make([]CoreStats, nCores)
	s.allCores = NewCoreSet(nCores)
	for c := 0; c < nCores; c++ {
		s.allCores.Add(c)
	}
	return s, nil
}

// MustNewSystem is NewSystem for callers with statically valid configs
// (tests, workload builders); it panics on error.
func MustNewSystem(cfg Config, nCores, words int, meter *energy.Meter) *System {
	s, err := NewSystem(cfg, nCores, words, meter)
	if err != nil {
		panic(err)
	}
	return s
}

// Stats returns a copy of the hierarchy activity counters.
func (s *System) Stats() Stats {
	out := s.stats
	out.PerCore = append([]CoreStats(nil), s.stats.PerCore...)
	return out
}

// Words returns the size of data memory in words.
func (s *System) Words() int { return s.words }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// ReadWord reads memory functionally, without timing or energy effects.
// Used by program init, checkpoint verification and tests.
func (s *System) ReadWord(addr int64) int64 {
	s.checkAddr(addr)
	if p := s.pages[addr>>pageShift]; p != nil {
		return p.words[addr&pageMask]
	}
	return 0
}

// WriteWord writes memory functionally, bypassing caches, timing, energy,
// log bits and communication tracking. Used by program init and by the
// recovery handler when restoring state (the restore's cost is charged
// explicitly by the recovery handler). Writing zero to an untouched page
// leaves it unallocated.
func (s *System) WriteWord(addr, val int64) {
	s.checkAddr(addr)
	p := s.pages[addr>>pageShift]
	if p == nil {
		if val == 0 {
			return
		}
		p = s.newPage(addr >> pageShift)
	}
	p.words[addr&pageMask] = val
}

// newPage allocates page pi on its first write.
func (s *System) newPage(pi int64) *page {
	p := &page{tags: make([]lineTag, s.lineMask+1)}
	s.pages[pi] = p
	i, _ := slices.BinarySearch(s.touched, int32(pi))
	s.touched = slices.Insert(s.touched, i, int32(pi))
	return p
}

func (s *System) checkAddr(addr int64) {
	if addr < 0 || addr >= int64(s.words) {
		panic(&AddressError{Addr: addr, Words: s.words})
	}
}

// access runs addr through core's cache stack and returns the latency,
// charging energy as it goes. Dirty victims migrate down the hierarchy:
// an L1 eviction installs the dirty line into L2; an L2 eviction writes it
// back to memory.
func (s *System) access(core int, line int64, store bool) int64 {
	cc := &s.caches[core]
	st := &s.stats.PerCore[core]
	s.meter.Add(energy.L1DAccess, 1)
	hit, victim, victimDirty := cc.l1d.Access(line, store)
	if hit {
		st.L1D.Hits++
		return s.cfg.L1HitCycles
	}
	st.L1D.Misses++
	if victimDirty {
		// Write the dirty L1 victim back into L2.
		st.L1D.Writebacks++
		s.meter.Add(energy.L2Access, 1)
		_, v2, v2Dirty := cc.l2.Access(victim, true)
		if v2Dirty && v2 != victim {
			st.L2.Writebacks++
			s.meter.Add(energy.DRAMWrite, uint64(s.cfg.LineWords))
		}
	}
	s.meter.Add(energy.L2Access, 1)
	hit, victim, victimDirty = cc.l2.Access(line, false)
	if hit {
		st.L2.Hits++
		return s.cfg.L2HitCycles
	}
	st.L2.Misses++
	if victimDirty {
		// Write-back from L2 to memory: one line of words.
		st.L2.Writebacks++
		s.meter.Add(energy.DRAMWrite, uint64(s.cfg.LineWords))
	}
	// Line fill from DRAM.
	st.Fills++
	s.meter.Add(energy.DRAMRead, uint64(s.cfg.LineWords))
	return s.cfg.DRAMCycles
}

// Load performs a data load by core, returning the value and access latency
// in cycles. Communication with the line's last writer (within the current
// interval) is recorded for local checkpointing.
func (s *System) Load(core int, addr int64) (val, cycles int64) {
	s.checkAddr(addr)
	line := addr >> s.lineShift
	cycles = s.access(core, line, false)
	p := s.pages[addr>>pageShift]
	if p == nil {
		// Never written: the word is zero and the line has no writer.
		return 0, cycles
	}
	s.observeComm(core, &p.tags[line&s.lineMask])
	return p.words[addr&pageMask], cycles
}

// Store performs a data store by core. It returns the old value of the
// word, whether this is the first store to the word in the current
// checkpoint interval (log bit was clear; the caller — the checkpoint
// manager — logs or omits the old value and the bit is set here), and the
// access latency.
func (s *System) Store(core int, addr, val int64) (old int64, first bool, cycles int64) {
	s.checkAddr(addr)
	line := addr >> s.lineShift
	cycles = s.access(core, line, true)
	p := s.pages[addr>>pageShift]
	if p == nil {
		p = s.newPage(addr >> pageShift) // the store path's one allocation, once per page
	}
	tag := &p.tags[line&s.lineMask]
	s.observeComm(core, tag)
	i := addr & pageMask
	old = p.words[i]
	p.words[i] = val

	w, b := i>>6, uint(i&63)
	if p.logBits[w]&(1<<b) == 0 {
		p.logBits[w] |= 1 << b
		first = true
		s.stats.LogBitSets++
	}
	*tag = lineTag{writer: int32(core) + 1, ivl: s.curInterval}
	return old, first, cycles
}

// observeComm records a communication edge between core and the last
// writer of the line tagged tag, if that write happened this interval.
func (s *System) observeComm(core int, tag *lineTag) {
	lw := tag.writer
	if lw != 0 && int(lw-1) != core && tag.ivl == s.curInterval {
		w := int(lw - 1)
		s.comm[core*s.commW+(w>>6)] |= 1 << uint(w&63)
		s.comm[w*s.commW+(core>>6)] |= 1 << uint(core&63)
		s.stats.CommEdges++
	}
}

// CommSet returns core's communication set for the current interval as a
// read-only view (aliasing the live directory row; callers must Clone
// before mutating).
func (s *System) CommSet(core int) CoreSet {
	return CoreSet(s.comm[core*s.commW : (core+1)*s.commW])
}

// CommGroups partitions cores into connected components of the current
// interval's communication graph. The groups are disjoint, cover all
// cores, and are ordered by lowest member; each is freshly allocated.
func (s *System) CommGroups() []CoreSet {
	assigned := NewCoreSet(s.nCores)
	next := NewCoreSet(s.nCores)
	var groups []CoreSet
	for c := 0; c < s.nCores; c++ {
		if assigned.Has(c) {
			continue
		}
		// BFS over the adjacency rows.
		group := NewCoreSet(s.nCores)
		group.Add(c)
		frontier := group.Clone()
		for !frontier.Empty() {
			next.Reset()
			frontier.ForEach(func(w int) {
				next.Or(s.CommSet(w))
			})
			for i := range frontier {
				frontier[i] = next[i] &^ group[i]
				group[i] |= next[i]
			}
		}
		assigned.Or(group)
		groups = append(groups, group)
	}
	return groups
}

// NewInterval begins a new checkpoint interval for the given cores: their
// log bits and their edges in the communication graph (rows and columns)
// are cleared. Under global checkpointing the group covers all cores and
// all log bits clear; under local checkpointing only words last written by
// group members are cleared (the group checkpoints its own data). The
// graph stays symmetric for any group, so CommGroups stays a partition.
func (s *System) NewInterval(group CoreSet, allCores bool) {
	if allCores {
		for _, pi := range s.touched {
			clear(s.pages[pi].logBits[:])
		}
		clear(s.comm)
		s.curInterval++
		return
	}
	// Local: clear log bits of words on lines last written by the group.
	// A line is LineWords contiguous bits of its page's logBits, so the
	// clear is a handful of masked whole-uint64 writes per line, not a
	// per-word loop. Untouched pages have no log bits and no writers.
	lw := int64(s.cfg.LineWords)
	for _, pi := range s.touched {
		p := s.pages[pi]
		for l, tag := range p.tags {
			if tag.writer == 0 || !group.Has(int(tag.writer-1)) {
				continue
			}
			end := int64(l+1) << s.lineShift
			for a := end - lw; a < end; {
				lo := uint(a & 63)
				n := min(int64(64-lo), end-a)
				p.logBits[a>>6] &^= (^uint64(0) >> (64 - uint(n))) << lo
				a += n
			}
		}
	}
	for c := 0; c < s.nCores; c++ {
		row := s.comm[c*s.commW : (c+1)*s.commW]
		if group.Has(c) {
			clear(row)
			continue
		}
		for i, g := range group {
			row[i] &^= g
		}
	}
	s.curInterval++
}

// FlushDirty cleans all dirty lines in the cache stacks of the cores in
// group, charging DRAM write energy, and returns the number of lines
// flushed. This models the write-back of dirty data when a checkpoint is
// established.
func (s *System) FlushDirty(group CoreSet) int {
	total := 0
	for c := 0; c < s.nCores; c++ {
		if group.Has(c) {
			total += s.caches[c].l1d.FlushDirty() + s.caches[c].l2.FlushDirty()
		}
	}
	s.stats.FlushedLines += int64(total)
	s.meter.Add(energy.DRAMWrite, uint64(total*s.cfg.LineWords))
	return total
}

// AppendDirtyWords appends to buf the addresses of every word whose log
// bit is set — the words updated since the interval's log bits were last
// cleared — and returns the extended slice, in ascending address order.
// The scan visits only allocated pages and is pure observation: no timing,
// energy or log-bit effect. The differential checkpoint strategy uses the
// log bits as its epoch dirty bitmap, scanning them at establishment
// (before NewInterval clears them) to capture the epoch's delta.
func (s *System) AppendDirtyWords(buf []int64) []int64 {
	for _, pi := range s.touched {
		base := int64(pi) << pageShift
		for w, mask := range s.pages[pi].logBits {
			for mask != 0 {
				buf = append(buf, base+int64(w*64)+int64(bits.TrailingZeros64(mask)))
				mask &= mask - 1
			}
		}
	}
	return buf
}

// Snapshot returns a copy of the functional memory image that copies only
// the allocated pages. Pure observation, used by checkpoint strategies
// that retain images.
func (s *System) Snapshot() *Image {
	img := &Image{pages: make([]*[pageWords]int64, len(s.pages))}
	for _, pi := range s.touched {
		cp := s.pages[pi].words
		img.pages[pi] = &cp
	}
	return img
}

// fastTierSpeedup is the bandwidth advantage of the fast (NVM-like)
// checkpoint tier over the DRAM channel: the log store sits on-package,
// off the shared memory controllers.
const fastTierSpeedup = 4

// FastTransferCycles returns the time, in cycles, to move the given number
// of words through the fast checkpoint tier (tiered strategies' log
// traffic). The tier shares the controller fan-out but sustains
// fastTierSpeedup times the per-controller bandwidth.
func (s *System) FastTransferCycles(words int) int64 {
	if words <= 0 {
		return 0
	}
	perCtrl := float64(words) / float64(s.Controllers())
	return int64(perCtrl/(s.cfg.WordsPerCycle*fastTierSpeedup)) + 1
}

// Controllers returns the number of memory controllers.
func (s *System) Controllers() int {
	n := s.nCores / s.cfg.CoresPerController
	if n < 1 {
		n = 1
	}
	return n
}

// TransferCycles returns the time, in cycles, to move the given number of
// words through the memory controllers, assuming uniform interleaving
// (Table I bandwidth: 7.6 GB/s per controller, one per four cores).
func (s *System) TransferCycles(words int) int64 {
	if words <= 0 {
		return 0
	}
	perCtrl := float64(words) / float64(s.Controllers())
	return int64(perCtrl/s.cfg.WordsPerCycle) + 1
}

// ResetCaches invalidates every cache (used between independent runs).
func (s *System) ResetCaches() {
	for i := range s.caches {
		s.caches[i].l1d.Reset()
		s.caches[i].l2.Reset()
	}
}

// DirtyLines reports the current number of dirty lines across the cache
// stacks of cores in group, without flushing.
func (s *System) DirtyLines(group CoreSet) int {
	n := 0
	for c := 0; c < s.nCores; c++ {
		if group.Has(c) {
			n += s.caches[c].l1d.DirtyLines() + s.caches[c].l2.DirtyLines()
		}
	}
	return n
}

// AllCores returns the set containing every core. The set is built once at
// construction and shared across calls — callers must treat it as
// read-only (Clone before mutating).
func (s *System) AllCores() CoreSet { return s.allCores }

// NCores returns the simulated core count.
func (s *System) NCores() int { return s.nCores }
