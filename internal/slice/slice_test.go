package slice

import (
	"math/rand"
	"testing"

	"acr/internal/isa"
)

// regSim pairs a Tracker with an architectural register file so tests can
// check the core invariant: a register's compiled recipe evaluates to its
// architectural value.
type regSim struct {
	t    *Tracker
	regs [isa.NumRegs]int64
}

func newRegSim() *regSim { return &regSim{t: NewTracker(1)} }

func (s *regSim) exec(in isa.Instr) {
	if !in.Op.IsALU() {
		panic("regSim: ALU only")
	}
	res := isa.EvalALU(in.Op, s.regs[in.Rs], s.regs[in.Rt], s.regs[in.Rd], in.Imm)
	if in.Rd != 0 {
		s.regs[in.Rd] = res
	}
	s.t.OnALU(0, in)
}

func (s *regSim) load(rd isa.Reg, val int64) {
	if rd != 0 {
		s.regs[rd] = val
	}
	s.t.OnLoad(0, rd, val)
}

func (s *regSim) checkInvariant(t *testing.T, maxOps int) {
	t.Helper()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		c, ok := s.t.Compile(0, s.t.Recipe(0, r), maxOps)
		if !ok {
			continue
		}
		if got := c.Eval(nil); got != s.regs[r] {
			t.Fatalf("recipe of %v evaluates to %d, architectural value %d\nslice:\n%s",
				r, got, s.regs[r], c)
		}
	}
}

func TestRecipeMatchesArchitecturalValue(t *testing.T) {
	s := newRegSim()
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 7})
	s.exec(isa.Instr{Op: isa.LI, Rd: 2, Imm: 5})
	s.exec(isa.Instr{Op: isa.ADD, Rd: 3, Rs: 1, Rt: 2})
	s.exec(isa.Instr{Op: isa.MUL, Rd: 4, Rs: 3, Rt: 3})
	s.load(5, 100)
	s.exec(isa.Instr{Op: isa.ADD, Rd: 6, Rs: 4, Rt: 5})
	s.checkInvariant(t, 64)

	c, ok := s.t.Compile(0, s.t.Recipe(0, 6), 64)
	if !ok {
		t.Fatal("r6 should compile")
	}
	if c.Eval(nil) != (7+5)*(7+5)+100 {
		t.Fatalf("r6 = %d", c.Eval(nil))
	}
	// Slice contains the two LIs, ADD, MUL, ADD = 5 ops; the load is an
	// input, not a member.
	if c.Len() != 5 {
		t.Errorf("slice length = %d, want 5", c.Len())
	}
	if c.NumInputs() != 1 {
		t.Errorf("inputs = %d, want 1", c.NumInputs())
	}
}

func TestSharedSubexpressionDeduplicated(t *testing.T) {
	s := newRegSim()
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 3})
	s.exec(isa.Instr{Op: isa.MUL, Rd: 2, Rs: 1, Rt: 1}) // 9
	s.exec(isa.Instr{Op: isa.ADD, Rd: 3, Rs: 2, Rt: 2}) // 18, r2 shared
	c, ok := s.t.Compile(0, s.t.Recipe(0, 3), 64)
	if !ok {
		t.Fatal("compile failed")
	}
	// li, mul, add = 3 distinct ops even though the tree has 4 nodes.
	if c.Len() != 3 {
		t.Errorf("dedup failed: len = %d, want 3", c.Len())
	}
	if c.Eval(nil) != 18 {
		t.Errorf("Eval = %d", c.Eval(nil))
	}
}

func TestLoadsCutSlices(t *testing.T) {
	s := newRegSim()
	s.load(1, 41)
	s.exec(isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 1})
	c, ok := s.t.Compile(0, s.t.Recipe(0, 2), 64)
	if !ok {
		t.Fatal("compile failed")
	}
	if c.Len() != 1 || c.NumInputs() != 1 {
		t.Errorf("len=%d inputs=%d, want 1,1", c.Len(), c.NumInputs())
	}
	if c.Eval(nil) != 42 {
		t.Errorf("Eval = %d", c.Eval(nil))
	}
}

func TestOpaquePropagates(t *testing.T) {
	s := newRegSim()
	// r1 goes opaque under a depth cap of 2; lifting the cap again shows
	// the opaque operand, not depth, keeps r2 from compiling.
	s.t.LimitDepth(2)
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 1})
	s.exec(isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1})
	s.exec(isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1})
	s.t.LimitDepth(SatSize)
	s.exec(isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 1})
	if _, ok := s.t.Compile(0, s.t.Recipe(0, 2), 64); ok {
		t.Error("op over opaque child must be opaque")
	}
}

func TestSaturationCollapsesLongChains(t *testing.T) {
	s := newRegSim()
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 1})
	for i := 0; i < SatSize+10; i++ {
		s.exec(isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1})
	}
	if s.t.Size(0, s.t.Recipe(0, 1)) != SatSize {
		t.Errorf("size = %d, want saturated %d", s.t.Size(0, s.t.Recipe(0, 1)), SatSize)
	}
	if _, ok := s.t.Compile(0, s.t.Recipe(0, 1), 300); ok {
		t.Error("saturated recipe must not compile")
	}
}

func TestCompileRespectsMaxOps(t *testing.T) {
	s := newRegSim()
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 1})
	for i := 0; i < 20; i++ {
		s.exec(isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1})
	}
	if _, ok := s.t.Compile(0, s.t.Recipe(0, 1), 10); ok {
		t.Error("21-op recipe compiled under maxOps=10")
	}
	if c, ok := s.t.Compile(0, s.t.Recipe(0, 1), 21); !ok || c.Len() != 21 {
		t.Errorf("21-op recipe should compile under maxOps=21 (ok=%v)", ok)
	}
}

func TestFMAReadsDestination(t *testing.T) {
	s := newRegSim()
	s.exec(isa.Instr{Op: isa.LI, Rd: 1, Imm: 0})
	s.exec(isa.Instr{Op: isa.CVTF, Rd: 1, Rs: 1}) // 0.0 accumulator
	s.load(2, isa.F2I(3.0))
	s.load(3, isa.F2I(4.0))
	s.exec(isa.Instr{Op: isa.FMA, Rd: 1, Rs: 2, Rt: 3})
	c, ok := s.t.Compile(0, s.t.Recipe(0, 1), 64)
	if !ok {
		t.Fatal("FMA recipe should compile")
	}
	if got := isa.I2F(c.Eval(nil)); got != 12.0 {
		t.Errorf("FMA recipe = %g, want 12", got)
	}
}

func TestRandomProgramInvariant(t *testing.T) {
	// Property: after any random sequence of ALU ops and loads, every
	// compilable register recipe evaluates to the architectural value.
	rng := rand.New(rand.NewSource(7))
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLT, isa.ADDI, isa.MULI, isa.SHLI, isa.SHRI, isa.LI, isa.MOV,
		isa.FADD, isa.FMUL, isa.FSUB, isa.FMA, isa.CVTF}
	for trial := 0; trial < 30; trial++ {
		s := newRegSim()
		for step := 0; step < 300; step++ {
			if rng.Intn(5) == 0 {
				s.load(isa.Reg(rng.Intn(31)+1), rng.Int63())
				continue
			}
			op := aluOps[rng.Intn(len(aluOps))]
			in := isa.Instr{
				Op:  op,
				Rd:  isa.Reg(rng.Intn(31) + 1),
				Rs:  isa.Reg(rng.Intn(32)),
				Rt:  isa.Reg(rng.Intn(32)),
				Imm: rng.Int63n(100) - 50,
			}
			s.exec(in)
		}
		s.checkInvariant(t, 256)
	}
}

func TestCompactionPreservesRecipes(t *testing.T) {
	tr := NewTracker(2)
	var regs [isa.NumRegs]int64
	tr.OnALU(0, isa.Instr{Op: isa.LI, Rd: 1, Imm: 11})
	regs[1] = 11
	tr.OnALU(0, isa.Instr{Op: isa.MULI, Rd: 2, Rs: 1, Imm: 3})
	regs[2] = 33
	tr.OnLoad(1, 5, 77)
	// Force a compaction on core 1's shard by generating garbage.
	tr.shards[1].compactLimit = len(tr.shards[1].arena) + 50
	for i := 0; i < 200; i++ {
		tr.OnALU(1, isa.Instr{Op: isa.LI, Rd: 9, Imm: int64(i)})
	}
	c, ok := tr.Compile(0, tr.Recipe(0, 2), 64)
	if !ok || c.Eval(nil) != 33 {
		t.Fatalf("recipe lost across compaction: ok=%v", ok)
	}
	c, ok = tr.Compile(1, tr.Recipe(1, 5), 64)
	if !ok || c.Eval(nil) != 77 {
		t.Fatalf("other core's recipe lost across compaction: ok=%v", ok)
	}
	c, ok = tr.Compile(1, tr.Recipe(1, 9), 64)
	if !ok || c.Eval(nil) != 199 {
		t.Fatalf("latest recipe wrong after compaction: ok=%v", ok)
	}
	if tr.ArenaLen() > 300 {
		t.Errorf("arena not compacted: %d nodes", tr.ArenaLen())
	}
}

func TestResetCoreCapturesLiveIns(t *testing.T) {
	tr := NewTracker(1)
	var vals [isa.NumRegs]int64
	vals[4] = 1234
	tr.ResetCore(0, &vals)
	c, ok := tr.Compile(0, tr.Recipe(0, 4), 64)
	if !ok || c.Eval(nil) != 1234 {
		t.Fatal("live-in not captured by ResetCore")
	}
	if c.Len() != 0 || c.NumInputs() != 1 {
		t.Errorf("live-in slice: len=%d inputs=%d, want 0,1", c.Len(), c.NumInputs())
	}
}

func TestZeroRegisterRecipe(t *testing.T) {
	tr := NewTracker(1)
	c, ok := tr.Compile(0, tr.Recipe(0, 0), 64)
	if !ok || c.Eval(nil) != 0 {
		t.Fatal("r0 recipe must evaluate to 0")
	}
	// Writes to r0 must not change its recipe.
	tr.OnALU(0, isa.Instr{Op: isa.LI, Rd: 0, Imm: 5})
	c, _ = tr.Compile(0, tr.Recipe(0, 0), 64)
	if c.Eval(nil) != 0 {
		t.Fatal("r0 recipe changed by write")
	}
}

func TestStorageWords(t *testing.T) {
	c := &Compiled{Inputs: []int64{1, 2, 3}, Ops: make([]COp, 5)}
	if got := c.StorageWords(); got != 3+3 {
		t.Errorf("StorageWords = %d, want 6", got)
	}
}

func TestCompiledStringRenders(t *testing.T) {
	s := newRegSim()
	s.load(1, 10)
	s.exec(isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 5})
	c, _ := s.t.Compile(0, s.t.Recipe(0, 2), 64)
	out := c.String()
	if out == "" {
		t.Fatal("empty rendering")
	}
}

func TestStaticBackwardSliceFig3(t *testing.T) {
	// The Fig. 3 running example, unrolled once:
	//   i, j loaded from memory; sumArr = (i*i) + (j<<1); store sumArr.
	code := []isa.Instr{
		{Op: isa.LD, Rd: 1, Rs: 10, Imm: 0},  // 0: load i      [input]
		{Op: isa.LD, Rd: 2, Rs: 10, Imm: 1},  // 1: load j      [input]
		{Op: isa.MUL, Rd: 3, Rs: 1, Rt: 1},   // 2: i*i         [slice]
		{Op: isa.SHLI, Rd: 4, Rs: 2, Imm: 1}, // 3: j<<1        [slice]
		{Op: isa.LD, Rd: 7, Rs: 10, Imm: 2},  // 4: unrelated load
		{Op: isa.ADD, Rd: 5, Rs: 3, Rt: 4},   // 5: sum         [slice]
		{Op: isa.ADDI, Rd: 8, Rs: 7, Imm: 1}, // 6: unrelated
		{Op: isa.ST, Rs: 11, Rt: 5, Imm: 0},  // 7: store sumArr
	}
	s, err := Backward(code, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantMembers := []int{2, 3, 5}
	if len(s.Members) != len(wantMembers) {
		t.Fatalf("members = %v, want %v", s.Members, wantMembers)
	}
	for i, m := range wantMembers {
		if s.Members[i] != m {
			t.Fatalf("members = %v, want %v", s.Members, wantMembers)
		}
	}
	wantInputs := []int{0, 1}
	if len(s.InputLoads) != 2 || s.InputLoads[0] != 0 || s.InputLoads[1] != 1 {
		t.Fatalf("input loads = %v, want %v", s.InputLoads, wantInputs)
	}
	if s.Len() != 3 || s.NumInputs() != 2 {
		t.Errorf("Len=%d NumInputs=%d, want 3,2", s.Len(), s.NumInputs())
	}
	r := s.Render(code)
	if r == "" {
		t.Error("empty render")
	}
}

func TestStaticBackwardRejectsNonStore(t *testing.T) {
	code := []isa.Instr{{Op: isa.NOP}}
	if _, err := Backward(code, 0); err == nil {
		t.Error("expected error slicing a non-store")
	}
	if _, err := Backward(code, 5); err == nil {
		t.Error("expected error for out-of-range index")
	}
}

func TestStaticLiveInDetected(t *testing.T) {
	// r1 is never defined in the window: it is a live-in input.
	code := []isa.Instr{
		{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 3},
		{Op: isa.ST, Rs: 10, Rt: 2, Imm: 0},
	}
	s, err := Backward(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only r1 is live-in: r10 is the address base, and address registers
	// are not part of the value slice.
	if len(s.LiveIn) != 1 || s.LiveIn[0] != 1 {
		t.Errorf("live-in = %v, want [r1]", s.LiveIn)
	}
}

func TestStaticSliceMultipleStores(t *testing.T) {
	// Two stores in one window: slices must be independent.
	code := []isa.Instr{
		{Op: isa.LD, Rd: 1, Rs: 10, Imm: 0},
		{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 1},
		{Op: isa.ST, Rs: 11, Rt: 2, Imm: 0},
		{Op: isa.MULI, Rd: 3, Rs: 2, Imm: 5},
		{Op: isa.ST, Rs: 11, Rt: 3, Imm: 1},
	}
	s1, err := Backward(code, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 1 || s1.NumInputs() != 1 {
		t.Errorf("first store slice: len=%d inputs=%d", s1.Len(), s1.NumInputs())
	}
	s2, err := Backward(code, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Second store's slice: MULI + ADDI (2 members), load input.
	if s2.Len() != 2 || s2.NumInputs() != 1 {
		t.Errorf("second store slice: len=%d inputs=%d", s2.Len(), s2.NumInputs())
	}
}

func TestStaticSliceRedefinitionShadows(t *testing.T) {
	// r2 is defined twice; only the latest definition before the store
	// belongs to the slice.
	code := []isa.Instr{
		{Op: isa.LI, Rd: 2, Imm: 1}, // dead
		{Op: isa.LI, Rd: 2, Imm: 9}, // live
		{Op: isa.ST, Rs: 11, Rt: 2, Imm: 0},
	}
	s, err := Backward(code, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Members[0] != 1 {
		t.Errorf("members = %v, want [1]", s.Members)
	}
}

// TestTrackerSetLiveIn checks that an externally produced value — a load
// result or a restored register — serves as a Slice input.
func TestTrackerSetLiveIn(t *testing.T) {
	tr := NewTracker(1)
	tr.OnLoad(0, 4, 1234)
	tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 5, Rs: 4, Imm: 1})
	c, ok := tr.Compile(0, tr.Recipe(0, 5), 10)
	if !ok || c.Eval(nil) != 1235 {
		t.Fatal("live-in not usable as slice input")
	}
}

func TestCompiledOpsSplitByUnit(t *testing.T) {
	c := &Compiled{Inputs: []int64{isa.F2I(1), isa.F2I(2)}, Ops: []COp{
		{Op: isa.FMUL, A: 0, B: 1, C: -1},
		{Op: isa.ADDI, A: 2, B: -1, C: -1, Imm: 0},
	}}
	if c.FloatOps() != 1 || c.IntOps() != 1 {
		t.Errorf("FloatOps=%d IntOps=%d, want 1,1", c.FloatOps(), c.IntOps())
	}
}
