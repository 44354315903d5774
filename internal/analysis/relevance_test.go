package analysis

import (
	"testing"

	"acr/internal/isa"
)

// relevantPCs returns the marked pcs of SliceRelevance(code, 0, plan).
func relevantPCs(t *testing.T, code []isa.Instr, plan []int32) []int {
	t.Helper()
	marks, err := SliceRelevance(code, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != len(code) {
		t.Fatalf("%d marks for %d instructions", len(marks), len(code))
	}
	var pcs []int
	for pc, m := range marks {
		if m {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

func checkPCs(t *testing.T, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("relevant pcs = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("relevant pcs = %v, want %v", got, want)
		}
	}
}

// assocLoop is a counted loop storing r3 = a[i]*3 + 1 with ASSOC-ADDR:
//
//	0 li r1,0 ; 1 li r2,8 ; 2 ld r3,0(r1) ; 3 muli r3,r3,3 ;
//	4 addi r3,r3,1 ; 5 st r3,64(r1) ; 6 assoc 64(r1) ;
//	7 addi r1,r1,1 ; 8 blt r1,r2 -> 2 ; 9 halt
func assocLoop() []isa.Instr {
	return []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 0},
		{Op: isa.LI, Rd: 2, Imm: 8},
		{Op: isa.LD, Rd: 3, Rs: 1},
		{Op: isa.MULI, Rd: 3, Rs: 3, Imm: 3},
		{Op: isa.ADDI, Rd: 3, Rs: 3, Imm: 1},
		{Op: isa.ST, Rt: 3, Rs: 1, Imm: 64},
		{Op: isa.ASSOCADDR, Rs: 1, Imm: 64},
		{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1},
		{Op: isa.BLT, Rs: 1, Rt: 2, Imm: 2},
		{Op: isa.HALT},
	}
}

// TestSliceRelevanceLoopCounterNotMarked: the loop counter and bound feed
// only the load address, the store address and the branch, never a stored
// value, so only the load and the value chain are tracked.
func TestSliceRelevanceLoopCounterNotMarked(t *testing.T) {
	checkPCs(t, relevantPCs(t, assocLoop(), nil), 2, 3, 4)
}

// TestSliceRelevanceLoadCutsSlice: a load kills the slice-live register
// without making its address live, so the address arithmetic before it is
// not tracked, while an ALU chain into the stored value is.
func TestSliceRelevanceLoadCutsSlice(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 5},          // 0 address base: feeds only the load
		{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 2}, // 1
		{Op: isa.LD, Rd: 2, Rs: 1},           // 2 cut
		{Op: isa.LI, Rd: 4, Imm: 7},          // 3 slice input by ALU
		{Op: isa.ADD, Rd: 2, Rs: 2, Rt: 4},   // 4
		{Op: isa.ST, Rt: 2, Rs: 0, Imm: 100}, // 5
		{Op: isa.ASSOCADDR, Rs: 0, Imm: 100}, // 6
		{Op: isa.HALT},
	}
	checkPCs(t, relevantPCs(t, code, nil), 2, 3, 4)
}

// TestSliceRelevanceFMAReadsDestination: FMA accumulates into Rd, so the
// def of its destination before it stays relevant.
func TestSliceRelevanceFMAReadsDestination(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 3, Imm: 1},          // 0 accumulator: read by FMA as Rd
		{Op: isa.LI, Rd: 1, Imm: 2},          // 1
		{Op: isa.LI, Rd: 2, Imm: 3},          // 2
		{Op: isa.LI, Rd: 5, Imm: 9},          // 3 dead for the slice
		{Op: isa.FMA, Rd: 3, Rs: 1, Rt: 2},   // 4
		{Op: isa.ST, Rt: 3, Rs: 0, Imm: 100}, // 5
		{Op: isa.ASSOCADDR, Rs: 0, Imm: 100}, // 6
		{Op: isa.HALT},
	}
	checkPCs(t, relevantPCs(t, code, nil), 0, 1, 2, 4)
}

// TestSliceRelevancePrunedSiteNotRoot: a site the plan prunes drops its
// association before any compile, so its stored value roots nothing; a
// default or boosted site still does.
func TestSliceRelevancePrunedSiteNotRoot(t *testing.T) {
	code := assocLoop()
	plan := make([]int32, len(code))
	plan[6] = -1
	checkPCs(t, relevantPCs(t, code, plan))
	plan[6] = 40
	checkPCs(t, relevantPCs(t, code, plan), 2, 3, 4)
}

// TestSliceRelevanceBranchTargetAssocMarksAll: an ASSOC-ADDR that starts a
// basic block is reached by a branch, so the store it pairs with at run time
// is unknown and every register reaching it is slice-live.
func TestSliceRelevanceBranchTargetAssocMarksAll(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 1},          // 0
		{Op: isa.LI, Rd: 2, Imm: 2},          // 1
		{Op: isa.LI, Rd: 7, Imm: 3},          // 2 no store reads r7
		{Op: isa.ST, Rt: 1, Rs: 0, Imm: 100}, // 3
		{Op: isa.ASSOCADDR, Rs: 0, Imm: 100}, // 4 target of the branch below
		{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1}, // 5
		{Op: isa.BLT, Rs: 1, Rt: 2, Imm: 4},  // 6
		{Op: isa.HALT},
	}
	checkPCs(t, relevantPCs(t, code, nil), 0, 1, 2, 5)
}
