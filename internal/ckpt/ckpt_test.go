package ckpt

import (
	"testing"

	"acr/internal/core"
	"acr/internal/cpu"
	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/slice"
)

// rig is a minimal machine-less harness: it drives the memory system and
// manager directly, playing the role of the sim loop.
type rig struct {
	sys   *mem.System
	meter *energy.Meter
	tr    *slice.Tracker
	h     *core.Handler
	mgr   *Manager
}

func newRig(t *testing.T, mode Mode, amnesic bool, nCores int) *rig {
	t.Helper()
	kind := KindFull
	if amnesic {
		kind = KindAmnesic
	}
	return newKindRig(t, kind, mode, nCores)
}

// newKindRig builds a rig running the given checkpoint strategy.
func newKindRig(t *testing.T, kind Kind, mode Mode, nCores int) *rig {
	t.Helper()
	meter := energy.NewMeter(nil)
	sys := mem.MustNewSystem(mem.DefaultConfig(), nCores, 4096, meter)
	arch := make([]cpu.ArchState, nCores)
	r := &rig{sys: sys, meter: meter}
	if kind.Amnesic() {
		r.tr = slice.NewTracker(nCores)
		r.h = core.NewHandler(core.Config{Threshold: 10, MapCapacity: 1024}, r.tr, meter)
	}
	mgr, err := NewManager(kind, mode, sys, meter, r.h, arch)
	if err != nil {
		t.Fatal(err)
	}
	r.mgr = mgr
	return r
}

// store performs a store by coreID, routing first-store events to the
// manager, exactly as the machine's hook does.
func (r *rig) store(coreID int, addr, val int64) {
	old, first, _ := r.sys.Store(coreID, addr, val)
	if first {
		r.mgr.OnFirstStore(coreID, addr, old)
	}
}

// assocStore performs a store paired with ASSOC-ADDR whose recipe is a
// trivially recomputable constant (LI val).
func (r *rig) assocStore(coreID int, addr, val int64) {
	r.tr.OnALU(coreID, isa.Instr{Op: isa.LI, Rd: 1, Imm: val})
	r.store(coreID, addr, val)
	r.h.OnAssoc(coreID, 0, addr, r.tr.Recipe(coreID, 1))
}

func (r *rig) establish(t *testing.T, time int64, nCores int) EstablishInfo {
	t.Helper()
	arch := make([]cpu.ArchState, nCores)
	return r.mgr.Establish(time, arch)
}

func snapshotMem(sys *mem.System, n int64) []int64 {
	out := make([]int64, n)
	for i := int64(0); i < n; i++ {
		out[i] = sys.ReadWord(i)
	}
	return out
}

func checkMem(t *testing.T, sys *mem.System, want []int64) {
	t.Helper()
	for i, w := range want {
		if got := sys.ReadWord(int64(i)); got != w {
			t.Fatalf("mem[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestRollbackToMostRecent(t *testing.T) {
	r := newRig(t, Global, false, 1)
	r.store(0, 10, 100)
	r.store(0, 11, 200)
	r.establish(t, 1000, 1)
	want := snapshotMem(r.sys, 64)

	r.store(0, 10, 999)
	r.store(0, 12, 888)
	target, err := r.mgr.SafeTarget(1500)
	if err != nil {
		t.Fatal(err)
	}
	if target.Seq != 1 {
		t.Fatalf("target seq = %d, want 1", target.Seq)
	}
	info, err := r.mgr.Rollback(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkMem(t, r.sys, want)
	if info.WordsRestored != 2 {
		t.Errorf("restored = %d, want 2", info.WordsRestored)
	}
}

func TestRollbackToSecondMostRecent(t *testing.T) {
	r := newRig(t, Global, false, 1)
	r.store(0, 10, 1)
	r.establish(t, 1000, 1) // ckpt 1: mem[10]=1
	want := snapshotMem(r.sys, 64)

	r.store(0, 10, 2)
	r.store(0, 11, 3)
	r.establish(t, 2000, 1) // ckpt 2 (unsafe: error occurred at 900? no —)

	r.store(0, 10, 4) // current interval

	// Error occurred at 1500, before ckpt 2 was established but detected
	// only after: ckpt 2 may be corrupted, so roll back to ckpt 1
	// (Fig. 2 semantics).
	target, err := r.mgr.SafeTarget(1500)
	if err != nil {
		t.Fatal(err)
	}
	if target.Seq != 1 {
		t.Fatalf("target seq = %d, want 1", target.Seq)
	}
	if _, err := r.mgr.Rollback(target, 1); err != nil {
		t.Fatal(err)
	}
	checkMem(t, r.sys, want)
}

func TestSafeTargetPrefersNewestSafe(t *testing.T) {
	r := newRig(t, Global, false, 1)
	r.establish(t, 1000, 1)
	r.establish(t, 2000, 1)
	target, err := r.mgr.SafeTarget(2500) // error after newest ckpt
	if err != nil || target.Time != 2000 {
		t.Fatalf("target = %+v, err %v", target, err)
	}
	target, err = r.mgr.SafeTarget(1500) // error before newest ckpt
	if err != nil || target.Time != 1000 {
		t.Fatalf("target = %+v, err %v", target, err)
	}
	if _, err := r.mgr.SafeTarget(500); err == nil {
		t.Error("error predating both checkpoints must fail (only two retained)")
	}
}

func TestAmnesicOmissionAndRecomputation(t *testing.T) {
	r := newRig(t, Global, true, 1)
	// Interval 1: associated stores produce recomputable values.
	r.assocStore(0, 10, 42)
	r.assocStore(0, 11, 43)
	r.store(0, 12, 44) // plain store: not omittable
	r.establish(t, 1000, 1)
	want := snapshotMem(r.sys, 64)

	// Interval 2: first stores to 10..12 trigger logging; 10 and 11 are
	// omitted (their old values 42, 43 are recomputable).
	r.store(0, 10, 0)
	r.store(0, 11, 0)
	r.store(0, 12, 0)
	st := r.mgr.Stats()
	if st.OmittedWords != 2 {
		t.Fatalf("omitted = %d, want 2 (stats %+v)", st.OmittedWords, st)
	}
	if st.LoggedWords != 3+1 { // interval 1 logged 3 (old values all 0), interval 2 logged word 12
		t.Fatalf("logged = %d, want 4 (stats %+v)", st.LoggedWords, st)
	}

	target, err := r.mgr.SafeTarget(1500)
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.mgr.Rollback(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkMem(t, r.sys, want)
	if info.RecomputedValues != 2 {
		t.Errorf("recomputed = %d, want 2", info.RecomputedValues)
	}
	if info.RecomputeCycles[0] <= 0 {
		t.Error("recompute cycles not attributed to core 0")
	}
	if r.sys.ReadWord(10) != 42 || r.sys.ReadWord(11) != 43 {
		t.Errorf("amnesic restore wrong: %d, %d", r.sys.ReadWord(10), r.sys.ReadWord(11))
	}
}

func TestAmnesicTwoIntervalRollback(t *testing.T) {
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 7)
	r.establish(t, 1000, 1)
	want := snapshotMem(r.sys, 64)
	r.store(0, 10, 8) // omits 7 amnesically into interval-2 log
	r.establish(t, 2000, 1)
	r.store(0, 10, 9)

	// Error at 1500 (before ckpt 2's establishment): must roll past both
	// logs to ckpt 1, recomputing 7.
	target, err := r.mgr.SafeTarget(1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Rollback(target, 1); err != nil {
		t.Fatal(err)
	}
	checkMem(t, r.sys, want)
	if r.sys.ReadWord(10) != 7 {
		t.Fatalf("mem[10] = %d, want recomputed 7", r.sys.ReadWord(10))
	}
}

func TestStaleAssociationNotOmitted(t *testing.T) {
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 42)
	r.store(0, 10, 55) // unassociated overwrite: record is stale
	r.establish(t, 1000, 1)
	r.store(0, 10, 0) // first store of interval 2: old value 55 ≠ 42 → logged
	st := r.mgr.Stats()
	if st.OmittedWords != 0 {
		t.Fatalf("stale value omitted: %+v", st)
	}
	target, _ := r.mgr.SafeTarget(1500)
	r.mgr.Rollback(target, 1)
	if r.sys.ReadWord(10) != 55 {
		t.Errorf("mem[10] = %d, want 55", r.sys.ReadWord(10))
	}
}

func TestIntervalStatsRecorded(t *testing.T) {
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 1)
	r.store(0, 20, 2)
	r.establish(t, 1000, 1)
	r.store(0, 10, 3) // omits
	r.store(0, 20, 4) // logs
	r.store(0, 21, 5) // logs
	r.establish(t, 2000, 1)
	ivs := r.mgr.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if ivs[0].Logged != 2 || ivs[0].Omitted != 0 {
		t.Errorf("interval 0 = %+v", ivs[0])
	}
	if ivs[1].Logged != 2 || ivs[1].Omitted != 1 {
		t.Errorf("interval 1 = %+v", ivs[1])
	}
	if ivs[1].Size() != 3 {
		t.Errorf("interval 1 size = %d", ivs[1].Size())
	}
}

func TestLocalEstablishGroups(t *testing.T) {
	r := newRig(t, Local, false, 4)
	// Cores 0,1 communicate; 2 and 3 are independent.
	r.store(0, 0, 1)
	r.sys.Load(1, 0)
	r.store(2, 1024, 2)
	info := r.establish(t, 1000, 4)
	if len(info.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(info.Groups))
	}
	if info.Groups[0].Members[0] != 0b0011 || info.Groups[0].Cores != 2 {
		t.Errorf("group 0 = %+v", info.Groups[0])
	}
	// Each group flushed only its own dirty data.
	if info.Groups[0].FlushedWords == 0 {
		t.Error("communicating group flushed nothing")
	}
	if info.Groups[2].FlushedWords != 0 { // core 3 wrote nothing
		t.Errorf("idle core flushed %d words", info.Groups[2].FlushedWords)
	}
}

func TestGlobalEstablishSingleGroup(t *testing.T) {
	r := newRig(t, Global, false, 4)
	r.store(0, 0, 1)
	info := r.establish(t, 1000, 4)
	if len(info.Groups) != 1 || info.Groups[0].Cores != 4 {
		t.Fatalf("groups = %+v", info.Groups)
	}
	if info.Groups[0].ArchWords != 4*(isa.NumRegs+1) {
		t.Errorf("arch words = %d", info.Groups[0].ArchWords)
	}
}

func TestRollbackRejectsUnretainedTarget(t *testing.T) {
	r := newRig(t, Global, false, 1)
	old := r.mgr.Current()
	r.establish(t, 1000, 1)
	r.establish(t, 2000, 1)
	r.establish(t, 3000, 1) // old (seq 0) no longer retained
	if _, err := r.mgr.Rollback(old, 1); err == nil {
		t.Error("rollback to unretained snapshot must fail")
	}
}

func TestRecoveryResetsLogsAndOmissionState(t *testing.T) {
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 42)
	r.establish(t, 1000, 1)
	r.store(0, 10, 1)
	target, _ := r.mgr.SafeTarget(1500)
	r.mgr.Rollback(target, 1)
	if r.mgr.Stats().Recoveries != 1 {
		t.Error("recovery not counted")
	}
	// After recovery the AddrMap is reset: the same old value can no
	// longer be omitted until re-associated.
	r.store(0, 10, 2)
	if r.mgr.Stats().OmittedWords != 1 { // only the pre-recovery omission
		t.Errorf("post-recovery omission happened: %+v", r.mgr.Stats())
	}
	// And rollback to the restored checkpoint still works.
	target2, err := r.mgr.SafeTarget(1600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Rollback(target2, 1); err != nil {
		t.Fatal(err)
	}
	if r.sys.ReadWord(10) != 42 {
		t.Errorf("mem[10] = %d, want 42", r.sys.ReadWord(10))
	}
}

func TestInlineLogEnergyCheaperWhenOmitted(t *testing.T) {
	// The amnesic path must not charge the DRAM log write.
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 42)
	r.establish(t, 1000, 1)
	before := r.meter.Count(energy.DRAMWrite)
	r.store(0, 10, 1) // omitted
	if got := r.meter.Count(energy.DRAMWrite) - before; got != 0 {
		t.Errorf("omitted first store charged %d DRAM writes", got)
	}
	r.store(0, 20, 2) // logged
	if got := r.meter.Count(energy.DRAMWrite) - before; got != 2 {
		t.Errorf("logged first store charged %d DRAM writes, want 2", got)
	}
}

func TestStallAsymmetry(t *testing.T) {
	r := newRig(t, Global, true, 1)
	r.assocStore(0, 10, 42)
	r.establish(t, 1000, 1)
	old, _, _ := r.sys.Store(0, 10, 1)
	if got := r.mgr.OnFirstStore(0, 10, old); got != OmitStallCycles {
		t.Errorf("omit stall = %d", got)
	}
	old, _, _ = r.sys.Store(0, 20, 1)
	if got := r.mgr.OnFirstStore(0, 20, old); got != InlineLogStallCycles {
		t.Errorf("log stall = %d", got)
	}
}

// TestDifferentialSealImageMatchesMemory pins the differential strategy's
// image ring across the recycled-image patch and the post-rollback clone
// path: after every seal the newest image must equal memory.
func TestDifferentialSealImageMatchesMemory(t *testing.T) {
	r := newKindRig(t, KindDifferential, Global, 2)
	d := r.mgr.strat.(*diffStrategy)
	seal := func(step string, time int64) {
		t.Helper()
		r.establish(t, time, 2)
		for a := int64(0); a < int64(r.sys.Words()); a++ {
			if got, w := d.images[0].Word(a), r.sys.ReadWord(a); got != w {
				t.Fatalf("%s: image[%d] = %d, memory holds %d", step, a, got, w)
			}
		}
	}
	r.store(0, 10, 1)
	r.store(1, 500, 2)
	seal("seal 1", 1000)
	r.store(0, 11, 3)
	r.store(1, 500, 4)
	seal("seal 2", 2000)
	r.store(0, 10, 5)
	r.store(0, 12, 6)
	seal("seal 3 (recycled)", 3000)

	r.store(1, 13, 7)
	target, err := r.mgr.SafeTarget(3500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Rollback(target, 2); err != nil {
		t.Fatal(err)
	}
	r.store(0, 14, 8)
	r.store(1, 10, 9)
	seal("seal after rollback (clone)", 4000)
	r.store(0, 14, 10)
	r.store(1, 501, 11)
	seal("seal 5 (recycled)", 5000)
	r.store(0, 10, 12)
	seal("seal 6 (recycled)", 6000)
}

// establishAllocs is what one global establish allocates today: the new
// Snapshot, its copy of the architectural states and the one-group Groups
// slice of the returned EstablishInfo. The ceiling keeps the count from
// growing; recycling the retired snapshot and a manager-owned group
// buffer would take it to 0.
const establishAllocs = 3

// TestEstablishAllocs measures one checkpoint establish on a warmed
// amnesic manager whose ring is full, so every establish also retires the
// oldest log and recycles its array. Each interval logs one store and
// omits one associated store.
func TestEstablishAllocs(t *testing.T) {
	const nCores = 2
	r := newRig(t, Global, true, nCores)
	arch := make([]cpu.ArchState, nCores)
	now := int64(0)
	interval := func() {
		now += 1000
		r.store(0, 8, now)
		r.assocStore(1, 16, now)
		r.mgr.Establish(now, arch)
	}
	for range 100 {
		interval()
	}
	if n := testing.AllocsPerRun(100, interval); n > establishAllocs {
		t.Errorf("store+assoc+establish: %v allocs, want ≤ %d", n, establishAllocs)
	}
}
