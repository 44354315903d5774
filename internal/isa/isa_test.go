package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpClassesDisjoint(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		classes := 0
		if op.IsALU() {
			classes++
		}
		if op.IsMem() {
			classes++
		}
		if op.IsBranch() {
			classes++
		}
		if classes > 1 {
			t.Errorf("op %v belongs to %d classes", op, classes)
		}
	}
}

func TestEveryOpNamed(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if !op.Valid() {
			t.Fatalf("op %d not valid below numOps", op)
		}
		s := op.String()
		if s == "" || s[0] == 'o' && s[1] == 'p' && s[2] == '(' {
			t.Errorf("op %d has no mnemonic", op)
		}
	}
	if Op(numOps).Valid() {
		t.Error("numOps reported valid")
	}
}

func TestFloatOpsAreALU(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.IsFloat() && !op.IsALU() {
			t.Errorf("float op %v not classified ALU", op)
		}
	}
}

func TestEvalALUInteger(t *testing.T) {
	cases := []struct {
		op        Op
		a, b, imm int64
		want      int64
	}{
		{ADD, 3, 4, 0, 7},
		{SUB, 3, 4, 0, -1},
		{MUL, -3, 4, 0, -12},
		{DIV, 12, 4, 0, 3},
		{DIV, 12, 0, 0, 0},
		{REM, 13, 4, 0, 1},
		{REM, 13, 0, 0, 0},
		{AND, 0b1100, 0b1010, 0, 0b1000},
		{OR, 0b1100, 0b1010, 0, 0b1110},
		{XOR, 0b1100, 0b1010, 0, 0b0110},
		{SHL, 1, 4, 0, 16},
		{SHR, -1, 60, 0, 15},
		{SLT, -5, 3, 0, 1},
		{SLT, 3, -5, 0, 0},
		{ADDI, 10, 0, -3, 7},
		{MULI, 10, 0, -3, -30},
		{ANDI, 0b111, 0, 0b101, 0b101},
		{ORI, 0b100, 0, 0b001, 0b101},
		{XORI, 0b111, 0, 0b010, 0b101},
		{SHLI, 3, 0, 2, 12},
		{SHRI, 16, 0, 2, 4},
		{LUI, 0, 0, 5, 5 << 32},
		{LI, 99, 0, -42, -42},
		{MOV, 77, 0, 0, 77},
	}
	for _, c := range cases {
		got := EvalALU(c.op, c.a, c.b, 0, c.imm)
		if got != c.want {
			t.Errorf("%v(%d,%d,imm=%d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	a, b := F2I(2.5), F2I(4.0)
	check := func(op Op, want float64) {
		t.Helper()
		got := I2F(EvalALU(op, a, b, F2I(1.0), 0))
		if got != want {
			t.Errorf("%v = %g, want %g", op, got, want)
		}
	}
	check(FADD, 6.5)
	check(FSUB, -1.5)
	check(FMUL, 10.0)
	check(FDIV, 0.625)
	check(FNEG, -2.5)
	check(FSQRT, math.Sqrt(2.5))
	check(FMA, 2.5*4.0+1.0)
	if got := I2F(EvalALU(FABS, F2I(-3.25), 0, 0, 0)); got != 3.25 {
		t.Errorf("FABS = %g", got)
	}
	if got := I2F(EvalALU(CVTF, 7, 0, 0, 0)); got != 7.0 {
		t.Errorf("CVTF = %g", got)
	}
	if got := EvalALU(CVTI, F2I(7.9), 0, 0, 0); got != 7 {
		t.Errorf("CVTI = %d", got)
	}
	if got := EvalALU(FLT, F2I(1.0), F2I(2.0), 0, 0); got != 1 {
		t.Errorf("FLT(1,2) = %d", got)
	}
	if got := EvalALU(FLT, F2I(2.0), F2I(1.0), 0, 0); got != 0 {
		t.Errorf("FLT(2,1) = %d", got)
	}
}

// TestEvalALUCorners pins EvalALU at the corners where a rewrite is most
// likely to drift: wrap-around, division by zero and by -1, shift amounts
// outside [0, 63], logical right shifts of negative values, and the
// floating-point signed zeros, infinities and NaN comparisons.
func TestEvalALUCorners(t *testing.T) {
	inf, negZero := F2I(math.Inf(1)), F2I(math.Copysign(0, -1))
	cases := []struct {
		op           Op
		a, b, c, imm int64
		want         int64
	}{
		{ADD, math.MaxInt64, 1, 0, 0, math.MinInt64},
		{SUB, math.MinInt64, 1, 0, 0, math.MaxInt64},
		{MUL, math.MaxInt64, 2, 0, 0, -2},
		{DIV, math.MinInt64, -1, 0, 0, math.MinInt64},
		{DIV, -7, 2, 0, 0, -3},
		{DIV, math.MinInt64, 0, 0, 0, 0},
		{REM, math.MinInt64, -1, 0, 0, 0},
		{REM, -7, 2, 0, 0, -1},
		{SHL, 1, 64, 0, 0, 1},
		{SHL, 1, -1, 0, 0, math.MinInt64},
		{SHR, math.MinInt64, 63, 0, 0, 1},
		{SHR, -1, 64, 0, 0, -1},
		{SLT, math.MinInt64, math.MaxInt64, 0, 0, 1},
		{MULI, math.MinInt64, 0, 0, -1, math.MinInt64},
		{SHLI, 3, 0, 0, 65, 6},
		{SHRI, -1, 0, 0, 63, 1},
		{LUI, 0, 0, 0, -1, -1 << 32},
		{FDIV, F2I(1), F2I(0), 0, 0, inf},
		{FNEG, F2I(0), 0, 0, 0, negZero},
		{FABS, negZero, 0, 0, 0, F2I(0)},
		{FADD, negZero, negZero, 0, 0, negZero},
		{FMA, F2I(2), F2I(3), F2I(1), 0, F2I(7)},
		{CVTF, math.MinInt64, 0, 0, 0, F2I(-0x1p63)},
		{CVTI, F2I(-2.9), 0, 0, 0, -2},
		{FLT, negZero, F2I(0), 0, 0, 0},
		{FLT, F2I(math.NaN()), F2I(1), 0, 0, 0},
		{FLT, F2I(1), F2I(math.NaN()), 0, 0, 0},
		{FLT, F2I(math.Inf(-1)), inf, 0, 0, 1},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.c, c.imm); got != c.want {
			t.Errorf("%v(a=%#x b=%#x c=%#x imm=%#x) = %#x, want %#x", c.op, c.a, c.b, c.c, c.imm, got, c.want)
		}
	}
	if got := I2F(EvalALU(FSQRT, F2I(-1), 0, 0, 0)); !math.IsNaN(got) {
		t.Errorf("FSQRT(-1) = %g, want NaN", got)
	}
	if got := I2F(EvalALU(FADD, inf, F2I(math.Inf(-1)), 0, 0)); !math.IsNaN(got) {
		t.Errorf("FADD(+Inf, -Inf) = %g, want NaN", got)
	}
}

// TestEvalALURejectsNonALU pins EvalALU's contract on non-ALU ops.
func TestEvalALURejectsNonALU(t *testing.T) {
	for _, op := range []Op{NOP, LD, ST, BEQ, JMP, HALT, BARRIER, ASSOCADDR} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalALU(%v) did not panic", op)
				}
			}()
			EvalALU(op, 1, 2, 3, 4)
		}()
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		// NaN payloads round-trip through the bit conversion.
		return F2I(I2F(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalALUDeterministic(t *testing.T) {
	// Property: EvalALU is a pure function — same inputs, same output.
	// This underpins the recomputation correctness guarantee.
	f := func(a, b, c, imm int64) bool {
		for op := Op(0); op < numOps; op++ {
			if !op.IsALU() {
				continue
			}
			if EvalALU(op, a, b, c, imm) != EvalALU(op, a, b, c, imm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{BEQ, 1, 1, true}, {BEQ, 1, 2, false},
		{BNE, 1, 2, true}, {BNE, 2, 2, false},
		{BLT, -1, 0, true}, {BLT, 0, -1, false},
		{BGE, 0, 0, true}, {BGE, -1, 0, false},
		{JMP, 0, 0, true},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v,%d,%d) = %v", c.op, c.a, c.b, got)
		}
	}
}

func TestSrcDstRegs(t *testing.T) {
	in := Instr{Op: ADD, Rd: 1, Rs: 2, Rt: 3}
	srcs := in.SrcRegs(nil)
	if len(srcs) != 2 || srcs[0] != 2 || srcs[1] != 3 {
		t.Errorf("ADD srcs = %v", srcs)
	}
	if d, ok := in.DstReg(); !ok || d != 1 {
		t.Errorf("ADD dst = %v,%v", d, ok)
	}

	st := Instr{Op: ST, Rs: 4, Rt: 5, Imm: 8}
	srcs = st.SrcRegs(nil)
	if len(srcs) != 2 || srcs[0] != 4 || srcs[1] != 5 {
		t.Errorf("ST srcs = %v", srcs)
	}
	if _, ok := st.DstReg(); ok {
		t.Error("ST should have no dst")
	}

	fma := Instr{Op: FMA, Rd: 1, Rs: 2, Rt: 3}
	srcs = fma.SrcRegs(nil)
	if len(srcs) != 3 || srcs[2] != 1 {
		t.Errorf("FMA srcs = %v (must read Rd)", srcs)
	}

	ld := Instr{Op: LD, Rd: 7, Rs: 8}
	if d, ok := ld.DstReg(); !ok || d != 7 {
		t.Errorf("LD dst = %v,%v", d, ok)
	}
	if s := ld.SrcRegs(nil); len(s) != 1 || s[0] != 8 {
		t.Errorf("LD srcs = %v", s)
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, "add r1, r2, r3"},
		{Instr{Op: ADDI, Rd: 1, Rs: 2, Imm: -4}, "addi r1, r2, -4"},
		{Instr{Op: LD, Rd: 5, Rs: 6, Imm: 16}, "ld r5, 16(r6)"},
		{Instr{Op: ST, Rs: 6, Rt: 7, Imm: 0}, "st r7, 0(r6)"},
		{Instr{Op: BEQ, Rs: 1, Rt: 2, Imm: 42}, "beq r1, r2, 42"},
		{Instr{Op: JMP, Imm: 9}, "jmp 9"},
		{Instr{Op: HALT}, "halt"},
		{Instr{Op: BARRIER}, "barrier"},
		{Instr{Op: LI, Rd: 3, Imm: 100}, "li r3, 100"},
		{Instr{Op: MOV, Rd: 3, Rs: 4}, "mov r3, r4"},
		{Instr{Op: ASSOCADDR, Rs: 2, Imm: 8}, "assocaddr 8(r2)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
