package ckpt

import (
	"fmt"

	"acr/internal/energy"
	"acr/internal/mem"
)

// Kind identifies a checkpoint strategy. The zero value is the
// conventional full-logging baseline.
type Kind int

// Checkpoint strategies.
const (
	// KindFull is conventional undo-log checkpointing: every first store
	// of an interval logs the old value (ReVive/Rebound, paper §II-A).
	KindFull Kind = iota
	// KindAmnesic is the paper's scheme: recomputable old values are
	// omitted from the log and recovered along ACR Slices (§III).
	KindAmnesic
	// KindDifferential is flush-and-copy delta checkpointing: no inline
	// logging at all; at establishment the epoch's dirty words (tracked by
	// the directory log bits acting as a dirty bitmap) are copied into a
	// retained memory image riding the establishment flush. Roll-back
	// restores the union of the crossed epochs' deltas from the target
	// image. Global coordination only.
	KindDifferential
	// KindTiered is multi-level undo logging: log entries are written to a
	// fast NVM-like tier (distinct energy events, higher bandwidth), age
	// into DRAM after TieredFastRetain establishments, and TieredRetention
	// checkpoints are retained — relaxing the detection-latency bound and
	// forcing multi-checkpoint roll-back paths. Global coordination only.
	KindTiered
	// KindAuto is amnesic checkpointing augmented by an AutoCheck-style
	// static pass: reaching-definition/liveness analysis classifies every
	// ASSOC site ahead of time, pruning sites whose Slices can never be
	// embedded and extending the length cap where replay safety is proven
	// statically (internal/analysis). Composes with, not replaces, the
	// amnesic recipes.
	KindAuto
)

// Tiered-strategy retention depths: logs stay in the fast tier for
// TieredFastRetain establishments, then demote to DRAM; TieredRetention
// checkpoints are recoverable in total.
const (
	TieredFastRetain = 2
	TieredRetention  = 4
)

// Kinds returns all strategies in declaration order.
func Kinds() []Kind {
	return []Kind{KindFull, KindAmnesic, KindDifferential, KindTiered, KindAuto}
}

var kindNames = [...]string{
	KindFull:         "full",
	KindAmnesic:      "amnesic",
	KindDifferential: "differential",
	KindTiered:       "tiered",
	KindAuto:         "auto",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a strategy name as accepted by the CLIs. Aliases: diff,
// tier.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "full":
		return KindFull, nil
	case "amnesic":
		return KindAmnesic, nil
	case "differential", "diff":
		return KindDifferential, nil
	case "tiered", "tier":
		return KindTiered, nil
	case "auto":
		return KindAuto, nil
	}
	return 0, fmt.Errorf("ckpt: unknown strategy %q (want full|amnesic|differential|tiered|auto)", s)
}

// Amnesic reports whether the strategy requires the ACR machinery
// (tracker, handler, AddrMap).
func (k Kind) Amnesic() bool { return k == KindAmnesic || k == KindAuto }

// Retention returns the number of checkpoints the strategy keeps.
func (k Kind) Retention() int {
	if k == KindTiered {
		return TieredRetention
	}
	return 2
}

// GlobalOnly reports whether the strategy requires global coordination
// (the differential image and the fast log tier are machine-global).
func (k Kind) GlobalOnly() bool { return k == KindDifferential || k == KindTiered }

// Describe returns the one-line summary acrsim -list-strategies prints.
func (k Kind) Describe() string {
	switch k {
	case KindFull:
		return "conventional undo-log checkpointing (ReVive/Rebound baseline)"
	case KindAmnesic:
		return "undo log with recomputable old values omitted via ACR Slices (the paper's scheme)"
	case KindDifferential:
		return "flush-and-copy delta images: no inline logging; epoch dirty words captured at establishment (global mode only)"
	case KindTiered:
		return "undo log in a fast NVM-like tier, demoting to DRAM; retains 4 checkpoints (global mode only)"
	case KindAuto:
		return "amnesic plus a static analysis pass pruning futile ASSOC sites and boosting verified ones"
	}
	return "unknown"
}

// SealInfo is what a strategy's Seal reports back to Establish: how the
// closing interval's checkpoint traffic drains.
type SealInfo struct {
	// LogsToFastTier reroutes the closing interval's log words through the
	// fast tier (GroupInfo.FastLogWords) instead of the DRAM channel.
	LogsToFastTier bool
	// ExtraSlowWords is additional DRAM-channel drain charged at this
	// establishment beyond the interval's log words: the differential
	// delta copy, the tiered demotion stream. Attributed to the (single,
	// global) coordination group.
	ExtraSlowWords int
}

// Strategy is the pluggable checkpoint scheme: how old values are captured
// on first store, what establishment seals, which retained checkpoint is
// safe, and how roll-back restores memory. Strategies keep their own
// per-scheme state and cost accounting (ckpt.Stats carries the
// strategy-specific counters); the Manager owns the retained-checkpoint
// ring, the interval logs and the generic bookkeeping.
type Strategy interface {
	// Kind identifies the strategy.
	Kind() Kind
	// Retention is the number of checkpoints the manager keeps.
	Retention() int
	// OnFirstStore handles the first update to addr within the open
	// interval and returns the store-side stall in cycles.
	OnFirstStore(m *Manager, coreID int, addr, old int64) int64
	// Seal runs at establishment, before the log ring rotates and before
	// the interval's log bits clear: the strategy captures
	// interval-granular state (delta images, tier demotion) and reports
	// how the closing traffic drains.
	Seal(m *Manager, time int64) SealInfo
	// SafeTarget returns the ring index of the newest retained checkpoint
	// established strictly before errTime, or -1 if none qualifies.
	SafeTarget(m *Manager, errTime int64) int
	// Rollback restores memory to the state of m.snaps[depth], filling
	// info, and resets any per-strategy interval state (the Manager resets
	// the ring afterwards).
	Rollback(m *Manager, depth int, info *RollbackInfo)
}

// newStrategy builds the strategy object for a kind.
func newStrategy(kind Kind, words int) Strategy {
	switch kind {
	case KindDifferential:
		return &diffStrategy{seen: make([]uint64, (words+63)/64)}
	case KindTiered:
		return &tieredStrategy{}
	default:
		return logStrategy{kind: kind}
	}
}

// ringSafeTarget is the shared safe-target rule (paper Fig. 2): the newest
// retained checkpoint established strictly before the error occurred — a
// checkpoint established after the occurrence may hold corrupted state.
func ringSafeTarget(m *Manager, errTime int64) int {
	for i, s := range m.snaps {
		if s.Time < errTime {
			return i
		}
	}
	return -1
}

// logStrategy is the classic undo-log capture path, shared by the full,
// amnesic and auto kinds (auto differs only in the static site plan the
// ACR handler applies at ASSOC time; amnesic and auto require an attached
// handler, full forbids one).
type logStrategy struct {
	kind Kind
}

func (s logStrategy) Kind() Kind     { return s.kind }
func (s logStrategy) Retention() int { return s.kind.Retention() }

func (s logStrategy) OnFirstStore(m *Manager, coreID int, addr, old int64) int64 {
	if m.acr != nil {
		if rec := m.acr.Omittable(addr, old); rec != nil {
			rec.Pin()
			m.logs[0] = append(m.logs[0], LogEntry{Addr: addr, Rec: rec, Writer: int8(coreID)})
			m.curStat.Omitted++
			m.stats.OmittedWords++
			return OmitStallCycles
		}
	}
	m.logs[0] = append(m.logs[0], LogEntry{Addr: addr, Old: old, Writer: int8(coreID)})
	m.curStat.Logged++
	m.stats.LoggedWords++
	m.logWordsByCore[coreID] += 2
	// Log entry: address + old value written to the in-memory log.
	m.meter.Add(energy.DRAMWrite, 2)
	return InlineLogStallCycles
}

func (s logStrategy) Seal(*Manager, int64) SealInfo { return SealInfo{} }

func (s logStrategy) SafeTarget(m *Manager, errTime int64) int {
	return ringSafeTarget(m, errTime)
}

func (s logStrategy) Rollback(m *Manager, depth int, info *RollbackInfo) {
	// Undo the open interval first, then each older interval in turn: a
	// word logged in several intervals ends at the oldest crossed
	// interval's old value because the oldest log is applied last.
	for i := 0; i <= depth; i++ {
		m.applyLog(m.logs[i], false, info)
	}
}

// tieredStrategy writes undo logs to a fast NVM-like tier. At each
// establishment the log aging past TieredFastRetain streams out to the
// DRAM-resident slow log area; TieredRetention checkpoints stay
// recoverable, so roll-backs may cross several intervals, reading the
// young logs at fast-tier cost and the demoted ones from DRAM.
type tieredStrategy struct {
	// sealedWords[i-1] is the log word count of ring log i (post-seal
	// alignment): the drain accounting the demotion charge needs.
	sealedWords []int
}

func (t *tieredStrategy) Kind() Kind     { return KindTiered }
func (t *tieredStrategy) Retention() int { return TieredRetention }

func (t *tieredStrategy) OnFirstStore(m *Manager, coreID int, addr, old int64) int64 {
	m.logs[0] = append(m.logs[0], LogEntry{Addr: addr, Old: old, Writer: int8(coreID)})
	m.curStat.Logged++
	m.stats.LoggedWords++
	m.stats.FastLogWords += 2
	m.logWordsByCore[coreID] += 2
	// Log entry: address + old value written to the fast log tier.
	m.meter.Add(energy.NVMWrite, 2)
	return InlineLogStallCycles
}

func (t *tieredStrategy) Seal(m *Manager, _ int64) SealInfo {
	closing := int(m.totalLogWords())
	// After the manager rotates, the closing log sits at ring index 1 and
	// every sealed log moves one slot deeper; keep the word counts
	// aligned with that post-rotation ring.
	t.sealedWords = append(t.sealedWords, 0)
	copy(t.sealedWords[1:], t.sealedWords)
	t.sealedWords[0] = closing
	if len(t.sealedWords) > TieredRetention-1 {
		t.sealedWords = t.sealedWords[:TieredRetention-1]
	}
	demoted := 0
	if len(t.sealedWords) >= TieredFastRetain {
		// The log arriving at ring index TieredFastRetain leaves the fast
		// tier: stream it to the DRAM-resident slow log area.
		demoted = t.sealedWords[TieredFastRetain-1]
	}
	if demoted > 0 {
		m.meter.Add(energy.NVMRead, uint64(demoted))
		m.meter.Add(energy.DRAMWrite, uint64(demoted))
		m.stats.DemotedWords += int64(demoted)
	}
	return SealInfo{LogsToFastTier: true, ExtraSlowWords: demoted}
}

func (t *tieredStrategy) SafeTarget(m *Manager, errTime int64) int {
	return ringSafeTarget(m, errTime)
}

func (t *tieredStrategy) Rollback(m *Manager, depth int, info *RollbackInfo) {
	for i := 0; i <= depth; i++ {
		m.applyLog(m.logs[i], i < TieredFastRetain, info)
	}
	t.sealedWords = t.sealedWords[:0]
}

// diffStrategy is flush-and-copy delta checkpointing: stores never stall
// and nothing is logged inline; the directory log bits double as the
// epoch's dirty bitmap. At establishment the dirty words are scanned and
// their (already flushed) values copied into a retained memory image
// — only the copy's writes are charged, the reads ride the establishment
// flush. Images are sparse (mem.Image): pages the program never wrote are
// nil in them as in memory. Roll-back restores the union of the crossed
// epochs' dirty sets from the target image: one image read and one memory
// write per distinct word, with no double-restores.
type diffStrategy struct {
	// images[i] is the memory image at snaps[i]; deltas[i-1] lists the
	// addresses dirtied during ring interval i (post-seal alignment).
	images  []*mem.Image
	deltas  [][]int64
	scratch []int64
	seen    []uint64 // distinct-word bitmap, cleared after each roll-back
}

func (d *diffStrategy) Kind() Kind     { return KindDifferential }
func (d *diffStrategy) Retention() int { return 2 }

// init captures the initial memory image for the implicit checkpoint the
// manager establishes at construction. Called by NewManager, after the
// program's memory init.
func (d *diffStrategy) init(m *Manager) {
	d.images = append(d.images, m.sys.Snapshot())
}

func (d *diffStrategy) OnFirstStore(*Manager, int, int64, int64) int64 { return 0 }

func (d *diffStrategy) Seal(m *Manager, _ int64) SealInfo {
	d.scratch = m.sys.AppendDirtyWords(d.scratch[:0])
	n := len(d.scratch)
	// The delta's values are captured from the establishment flush stream;
	// only the writes into the image area hit the channel.
	m.meter.Add(energy.DRAMWrite, uint64(n))
	m.stats.DeltaWords += int64(n)
	m.stats.LoggedWords += int64(n)
	m.curStat.Logged = int64(n)

	// New image = newest image + delta, aligned with the post-rotation
	// ring (index 0); the delta list lands at ring interval 1.
	var img *mem.Image
	if len(d.images) >= d.Retention() {
		// The recycled oldest image differs from the newest only at the
		// words the retained deltas list: patch those instead of copying
		// all of memory.
		img = d.images[len(d.images)-1]
		d.images = d.images[:len(d.images)-1]
		for _, delta := range d.deltas {
			for _, a := range delta {
				img.SetWord(a, d.images[0].Word(a))
			}
		}
	} else {
		img = d.images[0].Clone()
	}
	for _, a := range d.scratch {
		img.SetWord(a, m.sys.ReadWord(a))
	}
	d.images = append(d.images, nil)
	copy(d.images[1:], d.images)
	d.images[0] = img

	var delta []int64
	if len(d.deltas) >= d.Retention()-1 {
		delta = d.deltas[len(d.deltas)-1][:0]
		d.deltas = d.deltas[:len(d.deltas)-1]
	}
	delta = append(delta, d.scratch...)
	d.deltas = append(d.deltas, nil)
	copy(d.deltas[1:], d.deltas)
	d.deltas[0] = delta
	return SealInfo{ExtraSlowWords: n}
}

func (d *diffStrategy) SafeTarget(m *Manager, errTime int64) int {
	return ringSafeTarget(m, errTime)
}

func (d *diffStrategy) Rollback(m *Manager, depth int, info *RollbackInfo) {
	img := d.images[depth]
	restore := func(addr int64) {
		w, b := addr/64, uint(addr%64)
		if d.seen[w]&(1<<b) != 0 {
			return
		}
		d.seen[w] |= 1 << b
		m.sys.WriteWord(addr, img.Word(addr))
		// One image word read, one memory word written.
		m.meter.Add(energy.DRAMRead, 1)
		m.meter.Add(energy.DRAMWrite, 1)
		info.LogWordsRead++
		info.WordsRestored++
	}
	// Words dirtied since the target: the open epoch's dirty bitmap plus
	// the deltas of every crossed sealed interval.
	d.scratch = m.sys.AppendDirtyWords(d.scratch[:0])
	for _, a := range d.scratch {
		restore(a)
	}
	for i := 0; i < depth; i++ {
		for _, a := range d.deltas[i] {
			restore(a)
		}
	}
	for i := range d.seen {
		d.seen[i] = 0
	}

	// The ring collapses to the target.
	d.images[0] = d.images[depth]
	clear(d.images[1:])
	d.images = d.images[:1]
	d.deltas = d.deltas[:0]
}
