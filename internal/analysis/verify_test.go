package analysis

import (
	"errors"
	"strings"
	"testing"

	"acr/internal/isa"
	"acr/internal/slice"
)

// fig3 is a straight-line window in the shape of the paper's Fig. 3: two
// loads feed a pure arithmetic chain whose result is stored back.
//
//	0 li   r1, 8
//	1 ld   r2, 0(r1)     [I]
//	2 ld   r3, 1(r1)     [I]
//	3 add  r4, r2, r3    [S]
//	4 muli r5, r4, 2     [S]
//	5 st   r5, 2(r1)     [ST]
//	6 halt
func fig3() []isa.Instr {
	return []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 8},
		{Op: isa.LD, Rd: 2, Rs: 1, Imm: 0},
		{Op: isa.LD, Rd: 3, Rs: 1, Imm: 1},
		{Op: isa.ADD, Rd: 4, Rs: 2, Rt: 3},
		{Op: isa.MULI, Rd: 5, Rs: 4, Imm: 2},
		{Op: isa.ST, Rt: 5, Rs: 1, Imm: 2},
		{Op: isa.HALT},
	}
}

// wantUnsound asserts err is an *UnsoundSliceError violating the named
// obligation at the given pc.
func wantUnsound(t *testing.T, err error, obligation string, pc int) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation at pc %d, slice verified as sound", obligation, pc)
	}
	var u *UnsoundSliceError
	if !errors.As(err, &u) {
		t.Fatalf("err = %v (%T), want *UnsoundSliceError", err, err)
	}
	if u.Obligation != obligation || u.PC != pc {
		t.Fatalf("violation = %s at pc %d (%s), want %s at pc %d", u.Obligation, u.PC, u.Msg, obligation, pc)
	}
	if u.Msg == "" || !strings.Contains(err.Error(), "not replay-safe") {
		t.Fatalf("diagnostic %q lacks the replay-safety framing", err.Error())
	}
}

func TestVerifySoundFig3Slice(t *testing.T) {
	code := fig3()
	s, err := slice.Backward(code, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Members) != 2 || len(s.InputLoads) != 2 {
		t.Fatalf("Backward produced %+v, want 2 members and 2 input loads", s)
	}
	if err := VerifyStatic(code, s); err != nil {
		t.Fatalf("the Fig. 3 slice is replay-safe, got: %v", err)
	}
}

func TestVerifyRejectsBrokenClosure(t *testing.T) {
	code := fig3()
	// Drop the muli from the members: the stored value's producer is now
	// outside the slice.
	s := &slice.Static{StoreIdx: 5, Members: []int{3}, InputLoads: []int{1, 2}}
	wantUnsound(t, VerifyStatic(code, s), "closure", 5)
}

func TestVerifyRejectsMissingLiveIn(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.ADD, Rd: 4, Rs: 9, Rt: 9}, // r9 holds its entry value
		{Op: isa.ST, Rt: 4, Rs: 1, Imm: 0},
		{Op: isa.HALT},
	}
	sound := &slice.Static{StoreIdx: 1, Members: []int{0}, LiveIn: []isa.Reg{9}}
	if err := VerifyStatic(code, sound); err != nil {
		t.Fatalf("slice with r9 captured as live-in is sound, got: %v", err)
	}
	unsound := &slice.Static{StoreIdx: 1, Members: []int{0}}
	wantUnsound(t, VerifyStatic(code, unsound), "closure", 0)
}

func TestVerifyRejectsClobberedInput(t *testing.T) {
	// A store between the buffered input load and the sliced store
	// overwrites the very word the load captured.
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 8},
		{Op: isa.LI, Rd: 9, Imm: 7},
		{Op: isa.LD, Rd: 2, Rs: 1, Imm: 0},
		{Op: isa.ADD, Rd: 4, Rs: 2, Rt: 2},
		{Op: isa.ST, Rt: 9, Rs: 1, Imm: 0}, // clobbers word 8
		{Op: isa.ST, Rt: 4, Rs: 1, Imm: 2},
		{Op: isa.HALT},
	}
	s, err := slice.Backward(code, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantUnsound(t, VerifyStatic(code, s), "no-clobber", 4)

	// The same store one word over is provably distinct: sound.
	code[4].Imm = 1
	if err := VerifyStatic(code, s); err != nil {
		t.Fatalf("store to a provably distinct word is harmless, got: %v", err)
	}

	// A store through an unrelated base register cannot be disambiguated:
	// may-alias also rejects.
	code[4] = isa.Instr{Op: isa.ST, Rt: 9, Rs: 9, Imm: 0}
	wantUnsound(t, VerifyStatic(code, s), "no-clobber", 4)
}

func TestVerifyRejectsNonDominatingMember(t *testing.T) {
	// The load and add sit in a conditional arm the store does not require.
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 8},
		{Op: isa.BEQ, Rs: 1, Rt: 0, Imm: 4},
		{Op: isa.LD, Rd: 2, Rs: 1, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs: 2, Imm: 1},
		{Op: isa.ST, Rt: 4, Rs: 1, Imm: 2},
		{Op: isa.HALT},
	}
	s := &slice.Static{StoreIdx: 4, Members: []int{3}, InputLoads: []int{2}}
	wantUnsound(t, VerifyStatic(code, s), "dominance", 2)
}

func TestVerifyRejectsControlFlowDependentAddress(t *testing.T) {
	// The load's base register is written on two paths: the captured
	// address is control-flow dependent.
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 8},
		{Op: isa.BEQ, Rs: 1, Rt: 0, Imm: 3},
		{Op: isa.LI, Rd: 1, Imm: 16},
		{Op: isa.LD, Rd: 2, Rs: 1, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs: 2, Imm: 1},
		{Op: isa.ST, Rt: 4, Rs: 1, Imm: 1},
		{Op: isa.HALT},
	}
	s := &slice.Static{StoreIdx: 5, Members: []int{4}, InputLoads: []int{3}}
	wantUnsound(t, VerifyStatic(code, s), "address-determinism", 3)
}

func TestVerifyRejectsImpureMember(t *testing.T) {
	code := fig3()
	// A load listed as a member violates purity.
	s := &slice.Static{StoreIdx: 5, Members: []int{1, 3, 4}, InputLoads: []int{2}}
	wantUnsound(t, VerifyStatic(code, s), "purity", 1)
}

func TestVerifyRejectsBadStructure(t *testing.T) {
	code := fig3()
	for _, s := range []*slice.Static{
		{StoreIdx: 99},                      // store outside code
		{StoreIdx: 3},                       // not a store
		{StoreIdx: 5, Members: []int{6}},    // member after store
		{StoreIdx: 5, InputLoads: []int{3}}, // input is not a load
		{StoreIdx: 5, Members: []int{3}, InputLoads: []int{3}}, // overlap
	} {
		err := VerifyStatic(code, s)
		var u *UnsoundSliceError
		if !errors.As(err, &u) {
			t.Fatalf("Static %+v must be rejected with a diagnostic, got %v", s, err)
		}
	}
}

// TestVerifierReuse checks that one Verifier instance proves many slices of
// the same program, the PlanCheckpointSites usage pattern.
func TestVerifierReuse(t *testing.T) {
	code := fig3()
	v, err := NewVerifier(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := slice.Backward(code, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := v.Verify(s); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}
