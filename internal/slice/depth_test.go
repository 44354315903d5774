package slice

import (
	"math/rand"
	"reflect"
	"testing"

	"acr/internal/isa"
)

// TestDepthBoundedCompileMatchesUncapped is the property behind the depth
// cap: on random recipe DAGs (few registers, so sub-expressions are
// shared), at every cap, CompileInto succeeds iff an uncapped compile's
// Len() is at most the cap — both on the uncapped tracker and on a tracker
// capped by LimitDepth at a larger or equal cap — and every Slice it emits
// equals the uncapped one.
func TestDepthBoundedCompileMatchesUncapped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.ADDI,
		isa.MULI, isa.SHRI, isa.LI, isa.MOV, isa.FADD, isa.FMA}
	for _, depthCap := range []int{1, 2, 3, 5, 10, 20, 40} {
		for trial := 0; trial < 4; trial++ {
			ref, capped := NewTracker(1), NewTracker(1)
			capped.LimitDepth(depthCap)
			var refInto, into Compiled
			for step := 0; step < 400; step++ {
				if rng.Intn(8) == 0 {
					rd, val := isa.Reg(rng.Intn(6)+1), rng.Int63()
					ref.OnLoad(0, rd, val)
					capped.OnLoad(0, rd, val)
				} else {
					in := isa.Instr{
						Op:  aluOps[rng.Intn(len(aluOps))],
						Rd:  isa.Reg(rng.Intn(6) + 1),
						Rs:  isa.Reg(rng.Intn(7)),
						Rt:  isa.Reg(rng.Intn(7)),
						Imm: rng.Int63n(100),
					}
					ref.OnALU(0, in)
					capped.OnALU(0, in)
				}
				r := isa.Reg(rng.Intn(7))
				full, err := ref.CompileInto(0, &refInto, ref.Recipe(0, r), SatSize)
				refLen := SatSize // opaque or saturated: compiles under no cap
				if err == nil {
					refLen = full.Len()
				}
				for maxOps := 0; maxOps <= 2*depthCap; maxOps++ {
					trackers := []*Tracker{ref}
					if maxOps <= depthCap {
						trackers = append(trackers, capped)
					}
					for i, tr := range trackers {
						c, err := tr.CompileInto(0, &into, tr.Recipe(0, r), maxOps)
						if (err == nil) != (refLen <= maxOps) {
							t.Fatalf("cap %d step %d tracker %d: compile of %v at maxOps %d: err=%v, uncapped Len %d",
								depthCap, step, i, r, maxOps, err, refLen)
						}
						if err == nil && !reflect.DeepEqual(c, full) {
							t.Fatalf("cap %d step %d tracker %d: slice differs from the uncapped one:\n%s\nvs\n%s",
								depthCap, step, i, c, full)
						}
					}
				}
			}
		}
	}
}
