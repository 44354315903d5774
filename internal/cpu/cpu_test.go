package cpu

import (
	"testing"

	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
	"acr/internal/slice"
)

type testHooks struct {
	firstStores []int64
	olds        []int64
	assocs      []int64
	assocPCs    []int
	stall       int64
}

func (h *testHooks) FirstStore(core int, addr, old int64) int64 {
	h.firstStores = append(h.firstStores, addr)
	h.olds = append(h.olds, old)
	return h.stall
}

func (h *testHooks) Assoc(core, pc int, addr int64, recipe slice.Ref) int64 {
	h.assocs = append(h.assocs, addr)
	h.assocPCs = append(h.assocPCs, pc)
	return 0
}

func run(t *testing.T, p *prog.Program, hooks Hooks, tr *slice.Tracker) (*Core, *mem.System, *energy.Meter) {
	t.Helper()
	meter := energy.NewMeter(nil)
	words := p.DataWords
	if words == 0 {
		words = 64
	}
	m := mem.MustNewSystem(mem.DefaultConfig(), 1, words, meter)
	if p.Init != nil {
		buf := make([]int64, words)
		p.Init(buf)
		for i, v := range buf {
			m.WriteWord(int64(i), v)
		}
	}
	c := New(0, p.Entry, 1)
	c.AssocEnabled = true
	for steps := 0; c.State == Running; steps++ {
		if steps > 1_000_000 {
			t.Fatal("runaway program")
		}
		c.Step(p, m, tr, hooks)
		c.FlushAccounting(meter)
	}
	return c, m, meter
}

func TestArithmeticProgram(t *testing.T) {
	b := prog.New("arith")
	base := b.Data(8)
	b.Li(1, 6)
	b.Li(2, 7)
	b.Op3(isa.MUL, 3, 1, 2)
	b.Li(4, base)
	b.St(3, 4, 0)
	b.Halt()
	c, m, _ := run(t, b.MustBuild(), nil, nil)
	if m.ReadWord(base) != 42 {
		t.Errorf("mem[%d] = %d, want 42", base, m.ReadWord(base))
	}
	if c.Instrs != 6 {
		t.Errorf("instrs = %d, want 6", c.Instrs)
	}
}

func TestLoopExecution(t *testing.T) {
	b := prog.New("loop")
	base := b.Data(1)
	b.Li(10, base)
	b.LoopConst(1, 2, 10, func() {
		b.OpI(isa.ADDI, 3, 3, 2) // r3 += 2
	})
	b.St(3, 10, 0)
	b.Halt()
	_, m, _ := run(t, b.MustBuild(), nil, nil)
	if m.ReadWord(base) != 20 {
		t.Errorf("loop result = %d, want 20", m.ReadWord(base))
	}
}

func TestFourIssueTiming(t *testing.T) {
	// 8 ALU instructions retire in 2 cycles on the 4-issue core.
	b := prog.New("timing")
	for i := 0; i < 8; i++ {
		b.OpI(isa.ADDI, 1, 1, 1)
	}
	b.Halt()
	c, _, _ := run(t, b.MustBuild(), nil, nil)
	// 8 ALU quarters + 1 halt quarter = 9 quarters = 2 cycles (floor).
	if got := c.Cycles(); got != 2 {
		t.Errorf("cycles = %d, want 2", got)
	}
}

func TestMemoryLatencyCharged(t *testing.T) {
	b := prog.New("mem")
	base := b.Data(8)
	b.Li(1, base)
	b.Ld(2, 1, 0) // cold: DRAM latency
	b.Halt()
	c, _, _ := run(t, b.MustBuild(), nil, nil)
	cfg := mem.DefaultConfig()
	if c.Cycles() < cfg.DRAMCycles {
		t.Errorf("cycles = %d, want at least DRAM latency %d", c.Cycles(), cfg.DRAMCycles)
	}
}

func TestFirstStoreHook(t *testing.T) {
	b := prog.New("hooks")
	base := b.Data(8)
	b.Li(1, base)
	b.Li(2, 5)
	b.St(2, 1, 0) // first store to base
	b.St(2, 1, 0) // second store, same word: no hook
	b.St(2, 1, 1) // first store to base+1
	b.Halt()
	h := &testHooks{}
	run(t, b.MustBuild(), h, nil)
	if len(h.firstStores) != 2 {
		t.Fatalf("FirstStore fired %d times, want 2", len(h.firstStores))
	}
	if h.firstStores[0] != base || h.firstStores[1] != base+1 {
		t.Errorf("FirstStore addrs = %v", h.firstStores)
	}
	if h.olds[0] != 0 {
		t.Errorf("old value = %d, want 0", h.olds[0])
	}
}

func TestFirstStoreStallCharged(t *testing.T) {
	mk := func(stall int64) int64 {
		b := prog.New("stall")
		base := b.Data(8)
		b.Li(1, base)
		b.Li(2, 5)
		b.St(2, 1, 0)
		b.Halt()
		h := &testHooks{stall: stall}
		c, _, _ := run(t, b.MustBuild(), h, nil)
		return c.Cycles()
	}
	if mk(100)-mk(0) != 100 {
		t.Errorf("stall not charged: delta = %d", mk(100)-mk(0))
	}
}

func TestAssocHookCarriesRecipe(t *testing.T) {
	b := prog.New("assoc")
	base := b.Data(8)
	b.Li(1, base)
	b.Li(2, 21)
	b.OpI(isa.MULI, 3, 2, 2) // 42, pure arithmetic
	b.StAssoc(3, 1, 0)
	b.Halt()
	h := &testHooks{}
	tr := slice.NewTracker(1)
	p := b.MustBuild()
	_, m, _ := run(t, p, h, tr)
	if len(h.assocs) != 1 || h.assocs[0] != base {
		t.Fatalf("assocs = %v, want [%d]", h.assocs, base)
	}
	if pc := h.assocPCs[0]; p.Code[pc].Op != isa.ASSOCADDR {
		t.Errorf("Assoc carried pc %d (%v), want the ASSOC-ADDR's own PC", pc, p.Code[pc].Op)
	}
	if m.ReadWord(base) != 42 {
		t.Errorf("stored value = %d", m.ReadWord(base))
	}
}

func TestRecipeOfStoredValueEvaluable(t *testing.T) {
	// End-to-end: the recipe passed to Assoc recomputes the stored value.
	b := prog.New("recipe")
	base := b.Data(8)
	b.Li(1, base)
	b.Li(2, 10)
	b.OpI(isa.ADDI, 3, 2, 32)
	b.StAssoc(3, 1, 0)
	b.Halt()
	tr := slice.NewTracker(1)
	var got int64
	hk := hookFunc(func(core, pc int, addr int64, recipe slice.Ref) int64 {
		c, ok := tr.Compile(core, recipe, 64)
		if !ok {
			panic("recipe must compile")
		}
		got = c.Eval(nil)
		return 0
	})
	run(t, b.MustBuild(), hk, tr)
	if got != 42 {
		t.Errorf("recomputed = %d, want 42", got)
	}
}

type hookFunc func(core, pc int, addr int64, recipe slice.Ref) int64

func (f hookFunc) FirstStore(core int, addr, old int64) int64        { return 0 }
func (f hookFunc) Assoc(core, pc int, addr int64, r slice.Ref) int64 { return f(core, pc, addr, r) }

func TestBarrierAndHaltStates(t *testing.T) {
	b := prog.New("states")
	b.Barrier()
	b.Halt()
	p := b.MustBuild()
	meter := energy.NewMeter(nil)
	m := mem.MustNewSystem(mem.DefaultConfig(), 1, 64, meter)
	c := New(0, p.Entry, 1)
	c.Step(p, m, nil, nil)
	if c.State != AtBarrier {
		t.Fatalf("state = %v, want at-barrier", c.State)
	}
	c.State = Running // release
	c.Step(p, m, nil, nil)
	if c.State != Halted {
		t.Fatalf("state = %v, want halted", c.State)
	}
}

func TestArchSnapshotRestore(t *testing.T) {
	c := New(3, 17, 8)
	c.Regs[5] = 99
	snap := c.Arch()
	c.Regs[5] = 1
	c.PC = 0
	c.Restore(&snap)
	if c.Regs[5] != 99 || c.PC != 17 {
		t.Errorf("restore failed: r5=%d pc=%d", c.Regs[5], c.PC)
	}
	if c.Regs[prog.RegTID] != 3 || c.Regs[prog.RegNTHR] != 8 {
		t.Errorf("thread registers not preset: tid=%d n=%d",
			c.Regs[prog.RegTID], c.Regs[prog.RegNTHR])
	}
	if snap.Words() != isa.NumRegs+1 {
		t.Errorf("arch words = %d", snap.Words())
	}
}

func TestR0StaysZero(t *testing.T) {
	b := prog.New("r0")
	b.Li(0, 42)
	b.OpI(isa.ADDI, 1, 0, 1)
	b.Halt()
	c, _, _ := run(t, b.MustBuild(), nil, nil)
	if c.Regs[0] != 0 {
		t.Errorf("r0 = %d", c.Regs[0])
	}
	if c.Regs[1] != 1 {
		t.Errorf("r1 = %d, want 1 (r0 must read as 0)", c.Regs[1])
	}
}

func TestBranchRedirects(t *testing.T) {
	b := prog.New("branch")
	skip := b.NewLabel()
	b.Li(1, 1)
	b.Beq(1, 1, skip)
	b.Li(2, 99) // skipped
	b.Place(skip)
	b.Halt()
	c, _, _ := run(t, b.MustBuild(), nil, nil)
	if c.Regs[2] != 0 {
		t.Errorf("taken branch did not skip: r2 = %d", c.Regs[2])
	}
}

// nopHooks is a checkpoint hook that charges nothing and records nothing.
type nopHooks struct{}

func (nopHooks) FirstStore(core int, addr, old int64) int64             { return 0 }
func (nopHooks) Assoc(core, pc int, addr int64, recipe slice.Ref) int64 { return 0 }

// TestStepAllocs pins Step allocation-free on a warmed core: ALU ops,
// loads, first and repeat stores, ASSOC-ADDR and branches, with the
// recipe tracker and checkpoint hooks attached.
func TestStepAllocs(t *testing.T) {
	b := prog.New("step-allocs")
	base := b.Data(64)
	b.Li(1, base)
	top := b.NewLabel()
	b.Place(top)
	topPC := b.PC()
	b.OpI(isa.ADDI, 2, 2, 1)
	b.OpI(isa.ANDI, 2, 2, 63)
	b.Op3(isa.ADD, 5, 1, 2)
	b.Ld(3, 5, 0)
	b.Op3(isa.XOR, 6, 3, 2)
	b.StAssoc(6, 5, 0)
	b.Jmp(top)
	p := b.MustBuild()

	meter := energy.NewMeter(nil)
	sys := mem.MustNewSystem(mem.DefaultConfig(), 1, p.DataWords, meter)
	tr := slice.NewTracker(1)
	c := New(0, p.Entry, 1)
	c.AssocEnabled = true
	var hooks nopHooks
	// Warm up past the tracker's first arena compactions and every page
	// of the data region.
	for range 100_000 {
		c.Step(p, sys, tr, hooks)
	}
	// AllocsPerRun truncates its average, so each run retires a whole
	// loop iteration: an allocation on any one instruction kind reads ≥ 1.
	iteration := func() {
		for range len(p.Code) - topPC {
			c.Step(p, sys, tr, hooks)
		}
	}
	if n := testing.AllocsPerRun(1000, iteration); n != 0 {
		t.Errorf("Step: %v allocs per loop iteration, want 0", n)
	}
}
