// Package ckpt implements the BER substrate as a pluggable strategy
// engine. The baseline scheme is log-based incremental in-memory
// checkpointing in the style of ReVive/Rebound (paper §II-A): upon the
// first update to a memory word within a checkpoint interval, the word's
// old value is logged to an in-memory log; establishing a checkpoint
// writes back all dirty cache lines, records each core's architectural
// state, and starts a fresh log. Retained checkpoints form a ring sized by
// the strategy's retention depth — two for the paper's schemes, because
// the error-detection latency is bounded by the checkpoint period (§II-A,
// Fig. 2); deeper for the tiered strategy.
//
// The Strategy interface (strategy.go) is the seam: full, amnesic
// (recomputable old values omitted and replaced by pinned AddrMap records,
// paper §III), differential (flush-and-copy delta images), tiered (fast
// NVM-like log tier with demotion) and auto (amnesic plus a static
// analysis site plan) all plug into one Manager that owns the ring, the
// interval logs and the generic bookkeeping.
package ckpt

import (
	"fmt"

	"acr/internal/core"
	"acr/internal/cpu"
	"acr/internal/energy"
	"acr/internal/mem"
)

// Mode selects the coordination scheme (paper §II-A, §V-E).
type Mode int

// Coordination modes.
const (
	// Global: all cores cooperate on every checkpoint.
	Global Mode = iota
	// Local: only communicating cores (connected components of the
	// interval's communication graph) coordinate.
	Local
)

func (m Mode) String() string {
	if m == Local {
		return "local"
	}
	return "global"
}

// LogEntry is one record of the in-memory checkpoint log. A non-nil Rec
// marks an amnesic entry: the old value was omitted and will be recomputed
// along Rec's Slice during recovery.
type LogEntry struct {
	Addr   int64
	Old    int64
	Rec    *core.Record
	Writer int8
}

// Snapshot is one established checkpoint: the architectural state of every
// core plus the establishment time. Memory state is implicit (the log of
// the following interval undoes subsequent updates).
type Snapshot struct {
	Seq  int64
	Time int64
	Arch []cpu.ArchState
}

// IntervalStat records the checkpointable volume of one interval.
type IntervalStat struct {
	// Logged is the number of words conventionally logged.
	Logged int64
	// Omitted is the number of words amnesically omitted. The baseline
	// checkpoint size of the interval is Logged+Omitted.
	Omitted int64
}

// Size returns the baseline (non-amnesic) checkpoint size in words.
func (s IntervalStat) Size() int64 { return s.Logged + s.Omitted }

// ReplayLenBuckets are the upper bounds of the Slice replay-length
// histogram, in instructions replayed per recomputed value; ReplayHist has
// one extra overflow bucket for longer Slices.
var ReplayLenBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64}

// ReplayHist is a fixed-bucket histogram of Slice replay lengths observed
// while recomputing amnesically omitted values during recoveries. Bucket i
// counts replays of length ≤ ReplayLenBuckets[i] (cumulative-free: each
// observation lands in exactly one bucket); the final bucket is overflow.
type ReplayHist [len(ReplayLenBuckets) + 1]int64

func (h *ReplayHist) observe(n int64) {
	for i, ub := range ReplayLenBuckets {
		if n <= ub {
			h[i]++
			return
		}
	}
	h[len(ReplayLenBuckets)]++
}

// Total returns the number of observations across all buckets.
func (h ReplayHist) Total() int64 {
	t := int64(0)
	for _, n := range h {
		t += n
	}
	return t
}

// Stats aggregates manager activity over a run. The strategy-specific
// counters (DeltaWords, FastLogWords, DemotedWords) stay zero for
// strategies that don't produce them, so one struct carries every
// scheme's cost accounting through Result and telemetry.
type Stats struct {
	Checkpoints  int64
	Recoveries   int64
	LoggedWords  int64
	OmittedWords int64
	// RestoredWords counts memory words written during roll-backs
	// (conventional restores plus recomputed write-backs).
	RestoredWords int64
	// RecomputedWords counts the amnesic subset of RestoredWords.
	RecomputedWords int64
	// ReplayLens distributes the RecomputedWords by Slice replay length
	// (the per-dependency instrumentation that makes recomputation-cost
	// claims auditable).
	ReplayLens ReplayHist
	// DeltaWords counts words captured into differential images at
	// establishment (differential strategy).
	DeltaWords int64
	// FastLogWords counts log words written to the fast checkpoint tier
	// (tiered strategy).
	FastLogWords int64
	// DemotedWords counts log words streamed fast→slow at establishment
	// (tiered strategy).
	DemotedWords int64
	// MultiSnapshotRollbacks counts recoveries that crossed two or more
	// retained intervals; MaxRollbackDepth is the deepest roll-back in
	// intervals applied (paper Fig. 2's retention argument, exercised).
	MultiSnapshotRollbacks int64
	MaxRollbackDepth       int64
}

// EstablishInfo reports what a checkpoint establishment did, per
// coordination group, so the machine can charge time.
type EstablishInfo struct {
	// Groups lists the coordination groups; under Global there is one
	// covering all cores.
	Groups []GroupInfo
	// ClosedInterval is the just-sealed interval's volume (for strategies
	// that only learn the volume at establishment — differential — the
	// pre-establish OpenInterval reading would be stale).
	ClosedInterval IntervalStat
}

// GroupInfo is the per-group establishment cost basis.
type GroupInfo struct {
	// Members is the group's core set (multi-word: machines past 64 cores
	// are first-class).
	Members mem.CoreSet
	// Cores is the population of Members.
	Cores int
	// FlushedWords is the dirty data written back for this group.
	FlushedWords int
	// ArchWords is the architectural state written for this group.
	ArchWords int
	// LogWords is the log traffic (address + old value per entry) written
	// by the group's cores during the closing interval; it must drain
	// through the memory controllers before the checkpoint is complete.
	// For the differential and tiered strategies it also carries the
	// establishment-time delta copy and demotion stream.
	LogWords int
	// FastLogWords is the log traffic draining through the fast
	// checkpoint tier instead of the DRAM channel (tiered strategy).
	FastLogWords int
}

// RollbackInfo reports what a roll-back did so the machine can charge time.
type RollbackInfo struct {
	Target *Snapshot
	// LogWordsRead counts words read from the in-memory log (or the
	// retained image, for the differential strategy) over the DRAM
	// channel.
	LogWordsRead int64
	// FastLogWordsRead counts words read from the fast log tier.
	FastLogWordsRead int64
	// WordsRestored counts memory writes performed.
	WordsRestored int64
	// RecomputeCycles is the recomputation occupancy per core.
	RecomputeCycles []int64
	// RecomputedValues counts amnesic values regenerated.
	RecomputedValues int64
	// IntervalsApplied is the roll-back depth: retained intervals crossed
	// to reach the target (1 = newest checkpoint).
	IntervalsApplied int
}

// InlineLogStallCycles is the store-side stall of enqueuing one log entry:
// one store-buffer slot. The log itself drains to memory asynchronously
// (Rebound-style); its bandwidth cost is charged when the checkpoint is
// established, via GroupInfo.LogWords. OmitStallCycles is the amnesic path:
// the AddrMap check is folded into the ASSOC-ADDR protocol, so the store
// does not stall at all.
const (
	InlineLogStallCycles = 1
	OmitStallCycles      = 0
)

// Manager owns the retained-checkpoint ring, the interval logs and the
// generic bookkeeping; the strategy decides what is captured, sealed and
// restored. The sim machine drives coordination timing.
type Manager struct {
	strat Strategy
	mode  Mode
	sys   *mem.System
	meter *energy.Meter
	acr   *core.Handler // nil: plain (non-amnesic) checkpointing

	// snaps is the retained-checkpoint ring, newest first: snaps[0] is
	// the most recent established checkpoint. logs[i] holds the entries
	// captured during the interval that began at snaps[i]; logs[0] is the
	// open interval's log. Both are truncated to the strategy's retention.
	snaps []*Snapshot
	logs  [][]LogEntry

	intervals []IntervalStat
	curStat   IntervalStat
	// logWordsByCore attributes the closing interval's log traffic to its
	// writing cores (len = core count), for per-group establishment costing
	// under Local.
	logWordsByCore []int64
	stats          Stats
	nextSeq        int64
}

// NewManager creates a manager for the given strategy and establishes the
// implicit initial checkpoint (sequence 0 at time 0) from the given
// architectural states. Memory must already hold the program's initial
// image (the differential strategy snapshots it here). The ACR handler is
// required by the amnesic and auto strategies and rejected by the others.
func NewManager(kind Kind, mode Mode, sys *mem.System, meter *energy.Meter, acr *core.Handler, arch []cpu.ArchState) (*Manager, error) {
	if kind.Amnesic() != (acr != nil) {
		if acr != nil {
			return nil, fmt.Errorf("ckpt: strategy %v does not take an ACR handler", kind)
		}
		return nil, fmt.Errorf("ckpt: strategy %v requires an ACR handler", kind)
	}
	if kind.GlobalOnly() && mode != Global {
		return nil, fmt.Errorf("ckpt: strategy %v requires global coordination", kind)
	}
	m := &Manager{strat: newStrategy(kind, sys.Words()), mode: mode, sys: sys, meter: meter, acr: acr,
		logWordsByCore: make([]int64, sys.NCores())}
	m.snaps = append(m.snaps, &Snapshot{Seq: 0, Time: 0, Arch: append([]cpu.ArchState(nil), arch...)})
	m.logs = append(m.logs, nil)
	m.nextSeq = 1
	if d, ok := m.strat.(*diffStrategy); ok {
		d.init(m)
	}
	return m, nil
}

// Mode returns the coordination mode.
func (m *Manager) Mode() Mode { return m.mode }

// Kind returns the checkpoint strategy.
func (m *Manager) Kind() Kind { return m.strat.Kind() }

// Retention returns the number of checkpoints the strategy keeps.
func (m *Manager) Retention() int { return m.strat.Retention() }

// Amnesic reports whether an ACR handler is attached.
func (m *Manager) Amnesic() bool { return m.acr != nil }

// ACR returns the attached handler (nil when not amnesic).
func (m *Manager) ACR() *core.Handler { return m.acr }

// Stats returns accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats clears the accumulated statistics and interval history. The
// machine calls it when the region of interest begins, so reported volumes
// cover the ROI only (the paper measures the ROI, §IV); logs, snapshots and
// the AddrMap are untouched.
func (m *Manager) ResetStats() {
	m.stats = Stats{}
	m.intervals = nil
	m.curStat = IntervalStat{}
}

// Intervals returns per-interval checkpoint volume statistics, in
// establishment order (the current, unfinished interval is not included).
func (m *Manager) Intervals() []IntervalStat { return m.intervals }

// OpenInterval returns the running statistics of the current, not yet
// established interval (consumed by adaptive checkpoint placement).
func (m *Manager) OpenInterval() IntervalStat { return m.curStat }

// Current returns the most recent established checkpoint.
func (m *Manager) Current() *Snapshot { return m.snaps[0] }

// totalLogWords sums the open interval's attributed log traffic.
func (m *Manager) totalLogWords() int64 {
	t := int64(0)
	for _, w := range m.logWordsByCore {
		t += w
	}
	return t
}

// OnFirstStore handles the first update to addr within the current
// interval: the strategy logs, omits or ignores the old value. It returns
// the store-side stall in cycles.
func (m *Manager) OnFirstStore(coreID int, addr, old int64) int64 {
	return m.strat.OnFirstStore(m, coreID, addr, old)
}

// groupLogWords sums the interval's logged words over the group's members.
// The plain indexed loop (rather than CoreSet.ForEach with a closure) keeps
// the per-checkpoint path allocation-free.
func (m *Manager) groupLogWords(set mem.CoreSet) int {
	t := int64(0)
	for c, w := range m.logWordsByCore {
		if set.Has(c) {
			t += w
		}
	}
	return int(t)
}

// asGroup assembles one coordination group's traffic summary.
func (m *Manager) asGroup(set mem.CoreSet, cores, archWordsPer int, fastLogs bool) GroupInfo {
	g := GroupInfo{
		Members: set, Cores: cores,
		ArchWords: archWordsPer * cores,
	}
	if fastLogs {
		g.FastLogWords = m.groupLogWords(set)
	} else {
		g.LogWords = m.groupLogWords(set)
	}
	return g
}

// Establish creates a checkpoint at the given time from the cores'
// architectural states. Under Local mode, groups are the current
// communication components; under Global there is a single group. The
// strategy's Seal runs first — before the log bits clear and the ring
// rotates — capturing interval-granular state and deciding how the
// closing traffic drains.
func (m *Manager) Establish(time int64, arch []cpu.ArchState) EstablishInfo {
	var info EstablishInfo
	seal := m.strat.Seal(m, time)
	archWordsPer := 0
	if len(arch) > 0 {
		archWordsPer = arch[0].Words()
	}
	lineWords := m.sys.Config().LineWords

	if m.mode == Global {
		all := m.sys.AllCores()
		flushed := m.sys.FlushDirty(all)
		g := m.asGroup(all, len(arch), archWordsPer, seal.LogsToFastTier)
		g.FlushedWords = flushed * lineWords
		info.Groups = []GroupInfo{g}
		m.sys.NewInterval(all, true)
	} else {
		groups := m.sys.CommGroups()
		for _, gm := range groups {
			flushed := m.sys.FlushDirty(gm)
			g := m.asGroup(gm, gm.Count(), archWordsPer, seal.LogsToFastTier)
			g.FlushedWords = flushed * lineWords
			info.Groups = append(info.Groups, g)
		}
		for _, gm := range groups {
			m.sys.NewInterval(gm, false)
		}
	}
	// Establishment-time strategy traffic (delta copy, demotion stream)
	// drains with the first — under the global-only strategies, the only —
	// group.
	info.Groups[0].LogWords += seal.ExtraSlowWords
	clear(m.logWordsByCore)

	// Architectural state goes to the in-memory checkpoint area.
	m.meter.Add(energy.RegCkpt, uint64(archWordsPer*len(arch)))
	m.meter.Add(energy.DRAMWrite, uint64(archWordsPer*len(arch)))

	// Rotate the ring. Once it is full, the oldest log retires: its pinned
	// records are released and its backing array is recycled as the next
	// interval's log, so steady-state logging regrows nothing. The stale
	// entries beyond the reset length only reference records in the
	// AddrMap's machine-lifetime pool.
	var recycled []LogEntry
	if len(m.snaps) == m.strat.Retention() {
		oldest := m.logs[len(m.logs)-1]
		m.releaseLog(oldest)
		recycled = oldest[:0]
		m.logs = m.logs[:len(m.logs)-1]
		m.snaps = m.snaps[:len(m.snaps)-1]
	}
	m.logs = append(m.logs, nil)
	copy(m.logs[1:], m.logs)
	m.logs[0] = recycled
	m.snaps = append(m.snaps, nil)
	copy(m.snaps[1:], m.snaps)
	m.snaps[0] = &Snapshot{Seq: m.nextSeq, Time: time, Arch: append([]cpu.ArchState(nil), arch...)}

	info.ClosedInterval = m.curStat
	m.intervals = append(m.intervals, m.curStat)
	m.curStat = IntervalStat{}
	m.nextSeq++
	m.stats.Checkpoints++
	if m.acr != nil {
		m.acr.OnCheckpoint()
	}
	return info
}

func (m *Manager) releaseLog(log []LogEntry) {
	if m.acr == nil {
		return
	}
	am := m.acr.AddrMap()
	for i := range log {
		if log[i].Rec != nil {
			am.Release(log[i].Rec)
		}
	}
}

// SafeTarget returns the most recent retained checkpoint established
// strictly before the error occurrence time — the roll-back target per
// Fig. 2 (a checkpoint established after the error occurred may hold
// corrupted state). Deeper-retention strategies can reach past the two
// newest checkpoints when the detection latency spans several periods.
func (m *Manager) SafeTarget(errTime int64) (*Snapshot, error) {
	if i := m.strat.SafeTarget(m, errTime); i >= 0 {
		return m.snaps[i], nil
	}
	return nil, fmt.Errorf("ckpt: no safe checkpoint for error at %d (cur %d)", errTime, m.snaps[0].Time)
}

// Rollback restores memory to the state captured by target, recomputing
// amnesically omitted values along their Slices (Fig. 4b). It resets the
// manager to a single retained checkpoint (target, with an empty log), the
// memory interval state, and the AddrMap. The caller restores core
// architectural state from target.Arch and charges the stall reported in
// RollbackInfo.
func (m *Manager) Rollback(target *Snapshot, nCores int) (RollbackInfo, error) {
	info := RollbackInfo{Target: target, RecomputeCycles: make([]int64, nCores)}
	depth := -1
	for i, s := range m.snaps {
		if s == target {
			depth = i
			break
		}
	}
	if depth < 0 {
		return info, fmt.Errorf("ckpt: rollback target seq %d is not retained", target.Seq)
	}
	m.strat.Rollback(m, depth, &info)
	info.IntervalsApplied = depth + 1

	for _, log := range m.logs {
		m.releaseLog(log)
	}
	m.logs = append(m.logs[:0], nil)
	m.snaps = append(m.snaps[:0], target)
	m.curStat = IntervalStat{}

	m.sys.NewInterval(m.sys.AllCores(), true)
	if m.acr != nil {
		m.acr.OnRecovery()
	}
	m.stats.Recoveries++
	m.stats.RestoredWords += info.WordsRestored
	m.stats.RecomputedWords += info.RecomputedValues
	if depth >= 1 {
		m.stats.MultiSnapshotRollbacks++
	}
	if d := int64(depth + 1); d > m.stats.MaxRollbackDepth {
		m.stats.MaxRollbackDepth = d
	}
	return info, nil
}

// applyLog replays one interval's undo log. fast selects the log tier the
// conventional entries are read from (tiered strategy).
func (m *Manager) applyLog(log []LogEntry, fast bool, info *RollbackInfo) {
	for i := range log {
		e := &log[i]
		var val int64
		if e.Rec != nil {
			v, cycles := m.acr.Recompute(e.Rec)
			val = v
			info.RecomputeCycles[e.Rec.Core] += cycles
			info.RecomputedValues++
			m.stats.ReplayLens.observe(int64(e.Rec.Slice.Len()))
		} else if fast {
			// Read the entry (address + old value) from the fast log tier.
			m.meter.Add(energy.NVMRead, 2)
			info.FastLogWordsRead += 2
			val = e.Old
		} else {
			// Read the entry (address + old value) from the log.
			m.meter.Add(energy.DRAMRead, 2)
			info.LogWordsRead += 2
			val = e.Old
		}
		m.sys.WriteWord(e.Addr, val)
		m.meter.Add(energy.DRAMWrite, 1)
		info.WordsRestored++
	}
}
