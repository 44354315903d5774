package prog

import (
	"strings"
	"testing"

	"acr/internal/isa"
)

func TestBuildSimple(t *testing.T) {
	b := New("simple")
	b.Li(1, 42)
	b.Li(2, 8)
	b.Op3(isa.ADD, 3, 1, 2)
	base := b.Data(4)
	b.Li(4, base)
	b.St(3, 4, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 6 {
		t.Errorf("len(Code) = %d", len(p.Code))
	}
	if p.DataWords != 4 {
		t.Errorf("DataWords = %d", p.DataWords)
	}
}

func TestForwardAndBackwardLabels(t *testing.T) {
	b := New("labels")
	top := b.NewLabel()
	end := b.NewLabel()
	b.Place(top)
	b.Li(1, 1)
	b.Beq(1, 1, end) // forward
	b.Jmp(top)       // backward
	b.Place(end)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Imm != 3 {
		t.Errorf("forward branch target = %d, want 3", p.Code[1].Imm)
	}
	if p.Code[2].Imm != 0 {
		t.Errorf("backward branch target = %d, want 0", p.Code[2].Imm)
	}
}

func TestUnresolvedLabelFails(t *testing.T) {
	b := New("bad")
	l := b.NewLabel()
	b.Jmp(l)
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("expected error for unresolved label")
	}
	if !strings.Contains(err.Error(), "pcs [0]") {
		t.Fatalf("error %q should name the branch site pc 0", err)
	}
}

func TestDoublePlacedLabelFails(t *testing.T) {
	b := New("bad2")
	l := b.NewLabel()
	b.Place(l)
	b.Halt()
	b.Place(l)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for doubly placed label")
	}
}

func TestValidateRejectsBadBranch(t *testing.T) {
	p := &Program{Name: "x", Code: []isa.Instr{{Op: isa.JMP, Imm: 99}, {Op: isa.HALT}}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range branch to fail validation")
	}
}

func TestValidateRejectsLoneAssocAddr(t *testing.T) {
	p := &Program{Name: "x", Code: []isa.Instr{
		{Op: isa.NOP},
		{Op: isa.ASSOCADDR, Rs: 1, Imm: 0},
		{Op: isa.HALT},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("ASSOCADDR without paired store must fail validation")
	}
	p2 := &Program{Name: "x", Code: []isa.Instr{
		{Op: isa.ASSOCADDR, Rs: 1, Imm: 0},
		{Op: isa.HALT},
	}}
	if err := p2.Validate(); err == nil {
		t.Fatal("ASSOCADDR at pc 0 must fail validation")
	}
}

func TestStAssocPairValidates(t *testing.T) {
	b := New("assoc")
	b.Li(1, 7)
	b.Li(2, 0)
	b.StAssoc(1, 2, 5)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Op != isa.ST || p.Code[3].Op != isa.ASSOCADDR {
		t.Fatalf("StAssoc emitted %v, %v", p.Code[2].Op, p.Code[3].Op)
	}
}

func TestLoopShape(t *testing.T) {
	b := New("loop")
	body := 0
	b.LoopConst(1, 2, 10, func() {
		body++
		b.OpI(isa.ADDI, 3, 3, 1)
	})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if body != 1 {
		t.Fatalf("body emitted %d times at build time, want 1", body)
	}
	// li bound, li ctr, bge, body, addi, jmp, halt
	if len(p.Code) != 7 {
		t.Errorf("loop emitted %d instructions, want 7", len(p.Code))
	}
}

func TestDisassembleShowsLabels(t *testing.T) {
	b := New("dis")
	l := b.NewLabel()
	b.PlaceNamed(l, "main")
	b.Li(1, 5)
	b.Halt()
	p := b.MustBuild()
	text := p.Disassemble()
	if !strings.Contains(text, "main:") {
		t.Errorf("disassembly missing label:\n%s", text)
	}
	if !strings.Contains(text, "li r1, 5") {
		t.Errorf("disassembly missing instruction:\n%s", text)
	}
}

func TestDataAllocationSequential(t *testing.T) {
	b := New("data")
	a := b.Data(10)
	c := b.Data(5)
	if a != 0 || c != 10 {
		t.Errorf("Data bases = %d, %d; want 0, 10", a, c)
	}
	b.Halt()
	p := b.MustBuild()
	if p.DataWords != 15 {
		t.Errorf("DataWords = %d, want 15", p.DataWords)
	}
}

func TestBranchHelpers(t *testing.T) {
	b := New("branches")
	end := b.NewLabel()
	b.Li(1, 1)
	b.Li(2, 2)
	b.Bne(1, 2, end)
	b.Blt(1, 2, end)
	b.Bge(2, 1, end)
	b.Place(end)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for pc := 2; pc <= 4; pc++ {
		if p.Code[pc].Imm != 5 {
			t.Errorf("branch at %d targets %d, want 5", pc, p.Code[pc].Imm)
		}
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	p := &Program{Name: "r", Code: []isa.Instr{
		{Op: isa.ADD, Rd: 40, Rs: 1, Rt: 2},
		{Op: isa.HALT},
	}}
	if err := p.Validate(); err == nil {
		t.Error("register 40 must fail validation")
	}
}

func TestValidateRejectsBadOpcode(t *testing.T) {
	p := &Program{Name: "o", Code: []isa.Instr{
		{Op: isa.Op(200)},
		{Op: isa.HALT},
	}}
	if err := p.Validate(); err == nil {
		t.Error("invalid opcode must fail validation")
	}
}

func TestValidateRejectsBadEntry(t *testing.T) {
	p := &Program{Name: "e", Code: []isa.Instr{{Op: isa.HALT}}, Entry: 5}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range entry must fail validation")
	}
}

func TestValidateRejectsFallOffEnd(t *testing.T) {
	for _, last := range []isa.Instr{
		{Op: isa.BARRIER},
		{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1},
	} {
		p := &Program{Name: "f", Code: []isa.Instr{{Op: isa.LI, Rd: 1, Imm: 3}, last}}
		err := p.Validate()
		if err == nil {
			t.Fatalf("code ending in %v must fail validation", last)
		}
		if !strings.Contains(err.Error(), "pc 1") {
			t.Errorf("error %q should name pc 1", err)
		}
	}
	// A builder program missing its halt is refused at Build.
	b := New("nohalt")
	b.Li(1, 3)
	b.Barrier()
	if _, err := b.Build(); err == nil {
		t.Error("Build must refuse code that falls off the end")
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	b := New("panic")
	l := b.NewLabel()
	b.Jmp(l) // unresolved
	defer func() {
		if recover() == nil {
			t.Error("MustBuild must panic on unresolved label")
		}
	}()
	b.MustBuild()
}

func TestLoopDoesNotClobberOtherRegs(t *testing.T) {
	b := New("clobber")
	b.Li(9, 77)
	b.LoopConst(1, 2, 5, func() {
		b.OpI(isa.ADDI, 3, 3, 1)
	})
	b.Halt()
	p := b.MustBuild()
	// Statically check the loop only writes its counter, bound and body
	// registers.
	written := map[isa.Reg]bool{}
	for _, in := range p.Code {
		if rd, ok := in.DstReg(); ok {
			written[rd] = true
		}
	}
	for _, r := range []isa.Reg{1, 2, 3, 9} {
		if !written[r] {
			t.Errorf("register %v never written", r)
		}
	}
	if written[4] || written[10] {
		t.Error("loop wrote unexpected registers")
	}
}
