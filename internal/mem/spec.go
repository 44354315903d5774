package mem

import (
	"acr/internal/energy"
)

// SpecView is one core's isolated window onto the System during a
// speculative parallel round. While a round is open, all System state
// shared between cores — the dram words, log bits and last-writer
// directory entries, comm rows, global stats, the meter — is frozen: the
// view reads it but never writes it. The core's own writes land in a
// private overlay, its cache stack mutates for real behind the per-set
// rollback journal (caches are core-private), and everything else the
// quantum produces (write log, first-store words, comm observations,
// energy counts, touched-line sets) is buffered for the commit step.
//
// Bit-identity argument: absent line conflicts with the other quanta of
// the round, a quantum's speculative execution observes exactly the state
// serial execution would have shown it — the frozen shared state is the
// round-start state, and no other core may have changed any line this
// core touches (that is the conflict rule). Commit then applies the
// buffered effects; effects that are order-sensitive across cores (hook
// calls) are replayed by the engine in the serial merge order, and the
// rest (dram words, directory entries, log bits) are line-disjoint
// between quanta, so per-view application order cannot matter.
//
// A SpecView is owned by one worker goroutine during the round and by the
// main goroutine during commit/abort; the round's channel handoff
// provides the happens-before edge.
type SpecView struct {
	sys  *System
	core int

	// Acc is the detached energy accumulator merged at commit.
	Acc energy.Accum

	// overlay holds the quantum's own stores (addr → val), open-addressed
	// with addr+1 keys so the zero slot means empty.
	ovKeys []int64
	ovVals []int64
	ovLen  int

	// wlog is the quantum's stores in execution order; applied to dram
	// (and the last-writer directory) at commit.
	wlog []wlogEntry

	// Touched-line sets for conflict detection, each as an open-addressed
	// membership table (line+1 keys) plus a dense list for iteration.
	reads  lineSet
	writes lineSet

	// firstWords are the addresses whose first store of the current
	// checkpoint interval happened in this quantum (frozen log bit clear,
	// not previously stored by this quantum); their log bits are set at
	// commit.
	firstWords []int64

	// Comm observations against the frozen directory, multi-word per the
	// machine's core count: commSelf is the row to OR into the view core's
	// comm row; commOut (a writer-indexed matrix of commW-word rows, rows
	// live for writers in commTouched) is OR'd into each observed writer's
	// row; commEdges counts observations for Stats.
	commSelf    CoreSet
	commOut     []uint64
	commTouched CoreSet
	commList    []int32
	commEdges   int64

	// statsSnap restores stats.PerCore[core] on abort (the view mutates
	// that element in place: distinct cores touch distinct elements).
	statsSnap CoreStats
}

type wlogEntry struct{ addr, val int64 }

// lineSet is an open-addressed membership set over cache-line indices
// (stored as line+1 so zero means empty) with a dense list and a
// last-member fast path for the sequential-access common case.
type lineSet struct {
	keys []int64
	list []int64
	last int64 // last line added/probed hit; -1 when empty
}

//acr:spec-safe
func (s *lineSet) reset() {
	for _, ln := range s.list {
		h := setHome(ln, len(s.keys))
		for s.keys[h] != ln+1 {
			h = (h + 1) & (len(s.keys) - 1)
		}
		s.keys[h] = 0
	}
	s.list = s.list[:0]
	s.last = -1
}

//acr:spec-safe
func setHome(line int64, n int) int {
	return int((uint64(line+1) * 0x9E3779B97F4A7C15) >> 32 & uint64(n-1))
}

// add inserts line, reporting whether it was new.
//
//acr:spec-safe
func (s *lineSet) add(line int64) bool {
	if line == s.last {
		return false
	}
	if s.keys == nil {
		s.keys = make([]int64, 64)
	}
	if (s.len()+1)*4 > len(s.keys)*3 {
		s.grow()
	}
	h := setHome(line, len(s.keys))
	for {
		switch s.keys[h] {
		case 0:
			s.keys[h] = line + 1
			s.list = append(s.list, line)
			s.last = line
			return true
		case line + 1:
			s.last = line
			return false
		}
		h = (h + 1) & (len(s.keys) - 1)
	}
}

//acr:spec-safe
func (s *lineSet) has(line int64) bool {
	if len(s.keys) == 0 {
		return false
	}
	h := setHome(line, len(s.keys))
	for {
		switch s.keys[h] {
		case 0:
			return false
		case line + 1:
			return true
		}
		h = (h + 1) & (len(s.keys) - 1)
	}
}

//acr:spec-safe
func (s *lineSet) len() int { return len(s.list) }

//acr:spec-safe
func (s *lineSet) grow() {
	old := s.keys
	s.keys = make([]int64, len(old)*2)
	for _, k := range old {
		if k == 0 {
			continue
		}
		h := setHome(k-1, len(s.keys))
		for s.keys[h] != 0 {
			h = (h + 1) & (len(s.keys) - 1)
		}
		s.keys[h] = k
	}
}

// NewSpecView returns core's speculative view of sys. One view per core is
// allocated once and reused across rounds.
func NewSpecView(sys *System, core int) *SpecView {
	return &SpecView{
		sys:         sys,
		core:        core,
		ovKeys:      make([]int64, 256),
		ovVals:      make([]int64, 256),
		commSelf:    NewCoreSet(sys.nCores),
		commOut:     make([]uint64, sys.nCores*sys.commW),
		commTouched: NewCoreSet(sys.nCores),
	}
}

// Begin opens a round: all per-round buffers reset, the core's stat
// element is snapshotted, and the cache stack starts journaling.
//
//acr:spec-safe
func (v *SpecView) Begin() {
	// Deleting individual open-addressing slots would break probe
	// sequences, so the overlay table is wiped whole when used.
	if v.ovLen > 0 {
		clear(v.ovKeys)
		v.ovLen = 0
	}
	v.wlog = v.wlog[:0]
	v.reads.reset()
	v.writes.reset()
	v.firstWords = v.firstWords[:0]
	v.commSelf.Reset()
	cw := v.sys.commW
	for _, w := range v.commList {
		clear(v.commOut[int(w)*cw : (int(w)+1)*cw])
	}
	v.commList = v.commList[:0]
	v.commTouched.Reset()
	v.commEdges = 0
	v.Acc.Reset()
	v.statsSnap = v.sys.stats.PerCore[v.core]
	cc := &v.sys.caches[v.core]
	cc.l1d.BeginSpec()
	cc.l2.BeginSpec()
}

// overlay lookup; ok reports presence.
//
//acr:spec-safe
func (v *SpecView) ovGet(addr int64) (int64, bool) {
	h := setHome(addr, len(v.ovKeys))
	for {
		switch v.ovKeys[h] {
		case 0:
			return 0, false
		case addr + 1:
			return v.ovVals[h], true
		}
		h = (h + 1) & (len(v.ovKeys) - 1)
	}
}

//acr:spec-safe
func (v *SpecView) ovPut(addr, val int64) {
	if (v.ovLen+1)*4 > len(v.ovKeys)*3 {
		old, vals := v.ovKeys, v.ovVals
		v.ovKeys = make([]int64, len(old)*2)
		v.ovVals = make([]int64, len(old)*2)
		for i, k := range old {
			if k == 0 {
				continue
			}
			h := setHome(k-1, len(v.ovKeys))
			for v.ovKeys[h] != 0 {
				h = (h + 1) & (len(v.ovKeys) - 1)
			}
			v.ovKeys[h], v.ovVals[h] = k, vals[i]
		}
	}
	h := setHome(addr, len(v.ovKeys))
	for {
		switch v.ovKeys[h] {
		case 0:
			v.ovKeys[h] = addr + 1
			v.ovVals[h] = val
			v.ovLen++
			return
		case addr + 1:
			v.ovVals[h] = val
			return
		}
		h = (h + 1) & (len(v.ovKeys) - 1)
	}
}

// access mirrors System.access against the core's (real, journaled) cache
// stack, charging the view's accumulator instead of the meter.
//
//acr:spec-safe
func (v *SpecView) access(line int64, store bool) int64 {
	s := v.sys
	cc := &s.caches[v.core]
	st := &s.stats.PerCore[v.core]
	v.Acc.Add(energy.L1DAccess, 1)
	hit, victim, victimDirty := cc.l1d.Access(line, store)
	if hit {
		st.L1D.Hits++
		return s.cfg.L1HitCycles
	}
	st.L1D.Misses++
	if victimDirty {
		st.L1D.Writebacks++
		v.Acc.Add(energy.L2Access, 1)
		_, v2, v2Dirty := cc.l2.Access(victim, true)
		if v2Dirty && v2 != victim {
			st.L2.Writebacks++
			v.Acc.Add(energy.DRAMWrite, uint64(s.cfg.LineWords))
		}
	}
	v.Acc.Add(energy.L2Access, 1)
	hit, victim, victimDirty = cc.l2.Access(line, false)
	if hit {
		st.L2.Hits++
		return s.cfg.L2HitCycles
	}
	st.L2.Misses++
	if victimDirty {
		st.L2.Writebacks++
		v.Acc.Add(energy.DRAMWrite, uint64(s.cfg.LineWords))
	}
	st.Fills++
	v.Acc.Add(energy.DRAMRead, uint64(s.cfg.LineWords))
	return s.cfg.DRAMCycles
}

// observeComm mirrors System.observeComm against the frozen directory,
// buffering the row updates. A line this quantum already stored to is its
// own (serial execution would have made this core the last writer), so no
// edge is observed; a line another round member stores to is a conflict,
// so within committing rounds the frozen directory gives exactly the
// serial observation.
//
//acr:spec-safe
func (v *SpecView) observeComm(line int64) {
	if v.writes.has(line) {
		return
	}
	s := v.sys
	lw := s.lastWriter[line]
	if lw != 0 && int(lw-1) != v.core && s.lastWriteIvl[line] == s.curInterval {
		w := int(lw - 1)
		v.commSelf.Add(w)
		v.commOut[w*s.commW+(v.core>>6)] |= 1 << uint(v.core&63)
		if !v.commTouched.Has(w) {
			v.commTouched.Add(w)
			v.commList = append(v.commList, int32(w))
		}
		v.commEdges++
	}
}

// Load mirrors System.Load speculatively.
//
//acr:spec-safe
func (v *SpecView) Load(addr int64) (val, cycles int64) {
	v.sys.checkAddr(addr)
	line := addr / int64(v.sys.cfg.LineWords)
	cycles = v.access(line, false)
	v.observeComm(line)
	v.reads.add(line)
	if ov, ok := v.ovGet(addr); ok {
		return ov, cycles
	}
	return v.sys.dram[addr], cycles
}

// Store mirrors System.Store speculatively. first is computed against the
// frozen log bits plus the quantum's own overlay: the word is a first
// store iff its interval log bit was clear at round start and this quantum
// has not stored it before.
//
//acr:spec-safe
func (v *SpecView) Store(addr, val int64) (old int64, first bool, cycles int64) {
	s := v.sys
	s.checkAddr(addr)
	line := addr / int64(s.cfg.LineWords)
	cycles = v.access(line, true)
	v.observeComm(line)
	old, stored := v.ovGet(addr)
	if !stored {
		old = s.dram[addr]
	}
	v.ovPut(addr, val)
	v.wlog = append(v.wlog, wlogEntry{addr, val})
	v.writes.add(line)
	if !stored {
		if s.logBits[addr>>6]&(1<<uint(addr&63)) == 0 {
			first = true
			v.firstWords = append(v.firstWords, addr)
		}
	}
	return old, first, cycles
}

// ReadLines and WriteLines expose the touched-line sets (dense, unordered)
// for the engine's conflict scan.
//
//acr:spec-safe
func (v *SpecView) ReadLines() []int64  { return v.reads.list }
func (v *SpecView) WriteLines() []int64 { return v.writes.list }

// Abort discards the round: the cache stack rolls back and the core's stat
// element is restored. Buffered effects die with the next Begin.
//
//acr:spec-safe
func (v *SpecView) Abort() {
	cc := &v.sys.caches[v.core]
	cc.l1d.AbortSpec()
	cc.l2.AbortSpec()
	v.sys.stats.PerCore[v.core] = v.statsSnap
}

// Commit applies the round's buffered effects to the System: dram words
// and directory entries from the write log (line-disjoint from every other
// committing quantum, so per-view order is immaterial), interval log bits
// for the first-stored words, comm rows and global counters, and the
// energy accumulator. Hook effects (checkpoint logging) are NOT applied
// here — the engine replays those through the real hooks in serial merge
// order.
//
//acr:spec-safe
func (v *SpecView) Commit() {
	s := v.sys
	cc := &s.caches[v.core]
	cc.l1d.CommitSpec()
	cc.l2.CommitSpec()
	lw := int64(s.cfg.LineWords)
	for _, e := range v.wlog {
		s.dram[e.addr] = e.val
		s.lastWriter[e.addr/lw] = int32(v.core) + 1
		s.lastWriteIvl[e.addr/lw] = s.curInterval
	}
	for _, addr := range v.firstWords {
		s.logBits[addr>>6] |= 1 << uint(addr&63)
	}
	s.stats.LogBitSets += int64(len(v.firstWords))
	s.stats.CommEdges += v.commEdges
	cw := s.commW
	CoreSet(s.comm[v.core*cw : (v.core+1)*cw]).Or(v.commSelf)
	for _, w := range v.commList {
		CoreSet(s.comm[int(w)*cw : (int(w)+1)*cw]).Or(CoreSet(v.commOut[int(w)*cw : (int(w)+1)*cw]))
	}
	s.meter.Merge(&v.Acc)
}
