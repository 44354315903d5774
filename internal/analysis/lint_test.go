package analysis

import (
	"strings"
	"testing"

	"acr/internal/isa"
	"acr/internal/prog"
)

// lintFind returns the diagnostics of the given pass.
func lintFind(t *testing.T, code []isa.Instr, pass string) []Diag {
	t.Helper()
	diags, err := LintCode(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []Diag
	for _, d := range diags {
		if d.Pass == pass {
			out = append(out, d)
		}
	}
	return out
}

func TestLintUnreachable(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.JMP, Imm: 2},
		{Op: isa.LI, Rd: 1, Imm: 1}, // dead block
		{Op: isa.HALT},
	}
	got := lintFind(t, code, "unreachable")
	if len(got) != 1 || got[0].PC != 1 {
		t.Fatalf("unreachable diags = %v, want one at pc 1", got)
	}
}

func TestLintUninitRead(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.ADD, Rd: 3, Rs: 4, Rt: 5}, // r4, r5 never written
		{Op: isa.HALT},
	}
	got := lintFind(t, code, "uninit-read")
	if len(got) != 2 || got[0].PC != 0 {
		t.Fatalf("uninit-read diags = %v, want two at pc 0 (r4 and r5)", got)
	}
	// Reads of r0 and the loader-preset registers are exempt, and a
	// register written on *some* path is not definitely-uninitialised.
	clean := []isa.Instr{
		{Op: isa.BEQ, Rs: prog.RegTID, Rt: 0, Imm: 2},
		{Op: isa.LI, Rd: 1, Imm: 7},
		{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 1}, // r1 maybe-uninit: not flagged
		{Op: isa.MOV, Rd: 3, Rs: 0},
		{Op: isa.HALT},
	}
	if got := lintFind(t, clean, "uninit-read"); len(got) != 0 {
		t.Fatalf("maybe-initialised reads must not be flagged, got %v", got)
	}
}

func TestLintDeadStore(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 5},        // dead: overwritten before read
		{Op: isa.LI, Rd: 1, Imm: 6},        // live: stored below
		{Op: isa.ST, Rs: 0, Rt: 1, Imm: 0}, // mem[0] <- r1
		{Op: isa.HALT},
	}
	got := lintFind(t, code, "dead-store")
	if len(got) != 1 || got[0].PC != 0 {
		t.Fatalf("dead-store diags = %v, want exactly pc 0", got)
	}
	// Loads with unused results model traffic and are exempt.
	traffic := []isa.Instr{
		{Op: isa.LD, Rd: 2, Rs: 0, Imm: 0},
		{Op: isa.HALT},
	}
	if got := lintFind(t, traffic, "dead-store"); len(got) != 0 {
		t.Fatalf("unused load results must not be flagged, got %v", got)
	}
}

func TestLintWriteR0(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 0, Imm: 5},
		{Op: isa.HALT},
	}
	got := lintFind(t, code, "write-r0")
	if len(got) != 1 || got[0].PC != 0 {
		t.Fatalf("write-r0 diags = %v, want one at pc 0", got)
	}
}

func TestLintRejectsBadBranch(t *testing.T) {
	code := []isa.Instr{{Op: isa.JMP, Imm: 7}}
	if _, err := LintCode(code, 0); err == nil {
		t.Fatal("lint must refuse code whose CFG cannot be built")
	}
}

// TestLintBuilderProgram exercises the prog.Program entry point on a
// well-formed builder program, which must lint clean.
func TestLintBuilderProgram(t *testing.T) {
	b := prog.New("clean")
	base := b.Data(16)
	b.Li(1, base)
	b.LoopConst(2, 3, 8, func() {
		b.Op3(isa.ADD, 4, 1, 2)
		b.Ld(5, 4, 0)
		b.OpI(isa.ADDI, 5, 5, 1)
		b.St(5, 4, 0)
	})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String() + "\n")
		}
		t.Fatalf("clean program produced diagnostics:\n%s", sb.String())
	}
}

func TestSeverityStrings(t *testing.T) {
	for sev, want := range map[Severity]string{
		SevWarn: "warning", SevError: "error",
	} {
		if got := sev.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, got, want)
		}
	}
}
