package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"acr/internal/ckpt"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
)

// testKernel builds an iterative multithreaded program, shaped like the NAS
// codes: over several iterations, each thread overwrites its partition of an
// array with values computed arithmetically from the indices (stored with
// ASSOC-ADDR), then, after a barrier, reads its neighbour's partition and
// overwrites an output array with transformed values. Re-writing the same
// addresses across checkpoint intervals is what creates omission
// opportunities: the old value logged at the first update of an interval is
// the value an associated store produced earlier.
func testKernel(threads, perThread, iters int) *prog.Program {
	b := prog.New("testkernel")
	a := b.Data(threads * perThread)
	out := b.Data(threads * perThread)

	const (
		rBase  isa.Reg = 1
		rIdx   isa.Reg = 2
		rVal   isa.Reg = 3
		rEnd   isa.Reg = 4
		rAddr  isa.Reg = 5
		rTmp   isa.Reg = 6
		rNbr   isa.Reg = 7
		rOBase isa.Reg = 8
		rIter  isa.Reg = 20
		rItEnd isa.Reg = 21
	)
	// rBase = a + tid*perThread
	b.OpI(isa.MULI, rBase, prog.RegTID, int64(perThread))
	b.OpI(isa.ADDI, rBase, rBase, a)
	b.OpI(isa.ADDI, rNbr, prog.RegTID, 1)
	b.Op3(isa.REM, rNbr, rNbr, prog.RegNTHR)
	b.OpI(isa.MULI, rNbr, rNbr, int64(perThread))
	b.OpI(isa.ADDI, rNbr, rNbr, a)
	b.OpI(isa.MULI, rOBase, prog.RegTID, int64(perThread))
	b.OpI(isa.ADDI, rOBase, rOBase, out)
	b.Li(rEnd, int64(perThread))

	b.LoopConst(rIter, rItEnd, int64(iters), func() {
		// Phase 1: a[i] = out_own[i]/2 + 3 + tid. The value derives
		// from a load plus short arithmetic, so its Slice is a few
		// instructions with one buffered input — the common NAS shape.
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rOBase, rIdx)
			b.Ld(rVal, rAddr, 0)
			b.OpI(isa.SHRI, rVal, rVal, 1)
			b.OpI(isa.ADDI, rVal, rVal, 3)
			b.Op3(isa.ADD, rVal, rVal, prog.RegTID)
			b.Op3(isa.ADD, rAddr, rBase, rIdx)
			b.StAssoc(rVal, rAddr, 0)
		})
		b.Barrier()
		// Phase 2: out[i] = a_nbr[i]*2 + 1 (cross-thread communication).
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rNbr, rIdx)
			b.Ld(rTmp, rAddr, 0)
			b.OpI(isa.MULI, rTmp, rTmp, 2)
			b.OpI(isa.ADDI, rTmp, rTmp, 1)
			b.Op3(isa.ADD, rAddr, rOBase, rIdx)
			b.StAssoc(rTmp, rAddr, 0)
		})
		b.Barrier()
	})
	b.Halt()
	return b.MustBuild()
}

// golden mirrors testKernel functionally.
func golden(threads, perThread, iters int) []int64 {
	a := make([]int64, threads*perThread)
	out := make([]int64, threads*perThread)
	for iter := 0; iter < iters; iter++ {
		for tid := 0; tid < threads; tid++ {
			for i := 0; i < perThread; i++ {
				a[tid*perThread+i] = out[tid*perThread+i]/2 + 3 + int64(tid)
			}
		}
		for tid := 0; tid < threads; tid++ {
			nbr := (tid + 1) % threads
			for i := 0; i < perThread; i++ {
				out[tid*perThread+i] = a[nbr*perThread+i]*2 + 1
			}
		}
	}
	return append(a, out...)
}

func memWords(m *Machine, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Mem().ReadWord(int64(i))
	}
	return out
}

// runSnapshot runs p under cfg and returns the result, the final
// data-memory image and the engine counters.
func runSnapshot(t *testing.T, cfg Config, p *prog.Program) (Result, []int64, SchedStats) {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, memWords(m, p.DataWords), m.SchedStats()
}

// checkBitIdentical asserts a run reproduced its reference exactly: the
// full Result (cycles, instructions, energy totals and per-event counts,
// checkpoint/AddrMap/memory statistics, timeline) and every data-memory
// word.
func checkBitIdentical(t *testing.T, label string, want, got Result, wantMem, gotMem []int64) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results differ\nwant: %+v\ngot:  %+v", label, want, got)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("%s: memory differs at word %d: want %d, got %d",
				label, i, wantMem[i], gotMem[i])
		}
	}
}

// The test regime mirrors the paper's: a checkpoint interval spans several
// re-write iterations, so values omitted from a checkpoint were produced by
// associated stores in the recent past.
const (
	tThreads = 4
	tPer     = 40
	tIters   = 12
	tCkpts   = 2
)

func runCfg(t *testing.T, cfg Config) (Result, []int64) {
	t.Helper()
	p := testKernel(tThreads, tPer, tIters)
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, memWords(m, p.DataWords)
}

// baselineCycles runs NoCkpt once and caches the result for the package.
var baselineRes *Result
var baselineMem []int64

func baseline(t *testing.T) (Result, []int64) {
	t.Helper()
	if baselineRes == nil {
		res, mv := runCfg(t, DefaultConfig(tThreads))
		baselineRes, baselineMem = &res, mv
	}
	return *baselineRes, baselineMem
}

func ckptConfig(t *testing.T, amnesic bool, nCkpts int64) Config {
	t.Helper()
	base, _ := baseline(t)
	cfg := DefaultConfig(tThreads)
	cfg.Checkpointing = true
	if amnesic {
		cfg.Strategy = ckpt.KindAmnesic
	}
	cfg.PeriodCycles = base.Cycles / (nCkpts + 1)
	return cfg
}

func errConfig(t *testing.T, amnesic bool, nCkpts int64, nErr int) Config {
	t.Helper()
	base, _ := baseline(t)
	cfg := ckptConfig(t, amnesic, nCkpts)
	cfg.Errors = fault.Uniform(nErr, base.Cycles, cfg.PeriodCycles/2)
	return cfg
}

func checkSameMem(t *testing.T, got, want []int64, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: memory differs at %d: %d vs %d", label, i, got[i], want[i])
		}
	}
}

func TestFunctionalCorrectness(t *testing.T) {
	_, memv := baseline(t)
	want := golden(tThreads, tPer, tIters)
	checkSameMem(t, memv, want, "golden model")
}

func TestDeterminism(t *testing.T) {
	r1, m1 := runCfg(t, DefaultConfig(tThreads))
	r2, m2 := runCfg(t, DefaultConfig(tThreads))
	if r1.Cycles != r2.Cycles || r1.Instrs != r2.Instrs || r1.EnergyPJ != r2.EnergyPJ {
		t.Errorf("non-deterministic results: %+v vs %+v", r1, r2)
	}
	checkSameMem(t, m1, m2, "determinism")
}

func TestCheckpointingPreservesResults(t *testing.T) {
	_, base := baseline(t)
	for _, amnesic := range []bool{false, true} {
		res, memv := runCfg(t, ckptConfig(t, amnesic, tCkpts))
		if res.Ckpt.Checkpoints == 0 {
			t.Fatalf("amnesic=%v: no checkpoints taken", amnesic)
		}
		checkSameMem(t, memv, base, "checkpointing")
	}
}

func TestCheckpointingCostsTime(t *testing.T) {
	rNo, _ := baseline(t)
	rCk, _ := runCfg(t, ckptConfig(t, false, tCkpts))
	if rCk.Cycles <= rNo.Cycles {
		t.Errorf("checkpointing free? NoCkpt %d, Ckpt %d cycles", rNo.Cycles, rCk.Cycles)
	}
	if rCk.EnergyPJ <= rNo.EnergyPJ {
		t.Errorf("checkpointing energy free? %v vs %v", rNo.EnergyPJ, rCk.EnergyPJ)
	}
}

func TestAmnesicOmitsValues(t *testing.T) {
	res, _ := runCfg(t, ckptConfig(t, true, tCkpts))
	if res.Ckpt.OmittedWords == 0 {
		t.Fatalf("ACR omitted nothing: %+v", res.Ckpt)
	}
	if res.AddrMap.Inserts == 0 {
		t.Fatalf("no AddrMap inserts: %+v", res.AddrMap)
	}
	total := res.Ckpt.LoggedWords + res.Ckpt.OmittedWords
	if float64(res.Ckpt.OmittedWords)/float64(total) < 0.3 {
		t.Errorf("omission rate suspiciously low: %d/%d", res.Ckpt.OmittedWords, total)
	}
}

func TestAmnesicReducesCheckpointCost(t *testing.T) {
	rCk, _ := runCfg(t, ckptConfig(t, false, tCkpts))
	rRe, _ := runCfg(t, ckptConfig(t, true, tCkpts))
	if rRe.Cycles >= rCk.Cycles {
		t.Errorf("ReCkpt (%d cycles) not faster than Ckpt (%d cycles)", rRe.Cycles, rCk.Cycles)
	}
	if rRe.EnergyPJ >= rCk.EnergyPJ {
		t.Errorf("ReCkpt (%v pJ) not cheaper than Ckpt (%v pJ)", rRe.EnergyPJ, rCk.EnergyPJ)
	}
}

func TestRecoveryProducesCorrectResults(t *testing.T) {
	_, base := baseline(t)
	for _, amnesic := range []bool{false, true} {
		res, memv := runCfg(t, errConfig(t, amnesic, tCkpts, 2))
		if res.Ckpt.Recoveries != 2 {
			t.Fatalf("amnesic=%v: recoveries = %d, want 2 (%+v)", amnesic, res.Ckpt.Recoveries, res.Ckpt)
		}
		checkSameMem(t, memv, base, "recovery")
	}
}

func TestRecoveryRecomputesOmittedValues(t *testing.T) {
	res, _ := runCfg(t, errConfig(t, true, tCkpts, 1))
	if res.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Ckpt.Recoveries)
	}
	if res.Ckpt.RecomputedWords == 0 {
		t.Fatalf("recovery recomputed nothing: %+v", res.Ckpt)
	}
}

func TestErrorsCostTime(t *testing.T) {
	rNE, _ := runCfg(t, ckptConfig(t, false, tCkpts))
	rE, _ := runCfg(t, errConfig(t, false, tCkpts, 2))
	if rE.Cycles <= rNE.Cycles {
		t.Errorf("errors free? NE %d, E %d cycles", rNE.Cycles, rE.Cycles)
	}
}

func TestLocalModeRuns(t *testing.T) {
	_, base := baseline(t)
	for _, amnesic := range []bool{false, true} {
		cfg := ckptConfig(t, amnesic, tCkpts)
		cfg.Mode = ckpt.Local
		res, memv := runCfg(t, cfg)
		if res.Ckpt.Checkpoints == 0 {
			t.Fatal("no checkpoints under local mode")
		}
		checkSameMem(t, memv, base, "local")
	}
}

func TestLocalModeRecovery(t *testing.T) {
	_, base := baseline(t)
	cfg := errConfig(t, true, tCkpts, 2)
	cfg.Mode = ckpt.Local
	res, memv := runCfg(t, cfg)
	if res.Ckpt.Recoveries != 2 {
		t.Fatalf("recoveries = %d (%+v)", res.Ckpt.Recoveries, res.Ckpt)
	}
	checkSameMem(t, memv, base, "local recovery")
}

func TestMaxCheckpointsCap(t *testing.T) {
	cfg := ckptConfig(t, false, tCkpts)
	cfg.MaxCheckpoints = 3
	res, _ := runCfg(t, cfg)
	if res.Ckpt.Checkpoints != 3 {
		t.Errorf("checkpoints = %d, want capped 3", res.Ckpt.Checkpoints)
	}
}

func TestIntervalStatsPopulated(t *testing.T) {
	res, _ := runCfg(t, ckptConfig(t, true, tCkpts))
	if len(res.Intervals) == 0 {
		t.Fatal("no interval stats")
	}
	var logged, omitted int64
	for _, iv := range res.Intervals {
		logged += iv.Logged
		omitted += iv.Omitted
	}
	// Interval history covers established checkpoints; the tail interval
	// is not closed, so totals are bounded by the run totals.
	if logged > res.Ckpt.LoggedWords || omitted > res.Ckpt.OmittedWords {
		t.Errorf("interval totals exceed run totals: %d/%d vs %d/%d",
			logged, omitted, res.Ckpt.LoggedWords, res.Ckpt.OmittedWords)
	}
}

func TestConfigValidation(t *testing.T) {
	p := testKernel(1, 4, 1)
	bad := DefaultConfig(0)
	if _, err := New(bad, p); err == nil {
		t.Error("zero cores accepted")
	}
	c2 := DefaultConfig(1)
	c2.Checkpointing = true // no period
	if _, err := New(c2, p); err == nil {
		t.Error("zero period accepted")
	}
	c3 := DefaultConfig(1)
	c3.Strategy = ckpt.KindAmnesic // no checkpointing
	if _, err := New(c3, p); err == nil {
		t.Error("amnesic without checkpointing accepted")
	}
	c4 := DefaultConfig(1)
	c4.Errors = fault.Uniform(1, 100, 1)
	if _, err := New(c4, p); err == nil {
		t.Error("errors without checkpointing accepted")
	}
	c5 := DefaultConfig(1)
	c5.Checkpointing = true
	c5.PeriodCycles = 100
	c5.Errors = fault.Uniform(1, 1000, 500) // latency > period
	if _, err := New(c5, p); err == nil {
		t.Error("detection latency exceeding period accepted")
	}
	c6 := DefaultConfig(1)
	c6.Energy = nil
	if _, err := New(c6, p); err == nil {
		t.Error("nil energy model accepted")
	} else if !strings.Contains(err.Error(), "energy") {
		t.Errorf("nil-energy error not descriptive: %v", err)
	}
	c7 := DefaultConfig(1)
	c7.Checkpointing = true
	c7.PeriodCycles = -5
	if _, err := New(c7, p); err == nil {
		t.Error("negative period accepted")
	}
}

func TestRunawayGuard(t *testing.T) {
	b := prog.New("spin")
	top := b.NewLabel()
	b.Place(top)
	b.Jmp(top)
	b.Halt()
	p := b.MustBuild()
	for _, cores := range []int{1, 4} {
		cfg := DefaultConfig(cores)
		cfg.MaxSteps = 1000
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if err == nil || !strings.Contains(err.Error(), "exceeded 1000 steps") {
			t.Errorf("%d cores: infinite loop not caught (err %v)", cores, err)
		}
	}
}

// TestAddressErrorReturned: a load outside data memory ends the run with an
// error matchable as *mem.AddressError, not a process-killing panic.
func TestAddressErrorReturned(t *testing.T) {
	b := prog.New("oob")
	b.Data(8)
	b.Ld(5, 0, 1<<40)
	b.Halt()
	p := b.MustBuild()
	for _, cores := range []int{1, 4} {
		m, err := New(DefaultConfig(cores), p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		var ae *mem.AddressError
		if !errors.As(err, &ae) {
			t.Fatalf("%d cores: Run returned %v, want a *mem.AddressError", cores, err)
		}
		if ae.Addr != 1<<40 {
			t.Errorf("%d cores: AddressError.Addr = %d, want %d", cores, ae.Addr, int64(1)<<40)
		}
		if !strings.Contains(err.Error(), "core 0 pc 0") {
			t.Errorf("%d cores: error %q does not name core 0 pc 0", cores, err)
		}
	}
}

func TestBarrierCounted(t *testing.T) {
	res, _ := baseline(t)
	if res.Barriers != 2*tIters {
		t.Errorf("barriers = %d, want %d", res.Barriers, 2*tIters)
	}
}
