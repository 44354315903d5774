package analysis

import "acr/internal/isa"

// allRegs is the live mask with every register but r0 set.
const allRegs = ^uint32(1)

// SliceRelevance is the static half of the amnesic path's Slice tracking:
// it marks, per pc, the ALU instructions and loads whose result can reach a
// Slice some ASSOC-ADDR site compiles, so the runtime tracker needs to see
// only those (paper §III-A derives Slices in a compiler pass; this is the
// pass's dependence half).
//
// It is a backward fixpoint over the CFG shaped like Liveness, over
// "slice-live" registers:
//
//   - Roots: at every ASSOC-ADDR the site plan does not prune (plan value
//     < 0, see core.Config.SitePlan), the paired store's value register
//     Rt. An ASSOC-ADDR that starts a basic block is reached by a branch,
//     so which store it pairs with at run time is not known here: every
//     register becomes live.
//   - An ALU def of a live register is marked, kills it and makes its
//     sources live (FMA also reads Rd).
//   - A load def of a live register is marked and kills it; the address is
//     not live, because a load result is a Slice input, not a Slice op.
//
// Skipping an unmarked def is sound: on every path, the last def of a
// register before a relevant read is itself marked (the register is live
// there), so every recipe a site or a marked def reads is the one full
// tracking would have built. Blocks unreachable from entry are analysed
// too. sitePlan may be nil (no site pruned).
func SliceRelevance(code []isa.Instr, entry int, sitePlan []int32) ([]bool, error) {
	g, err := BuildCFG(code, entry)
	if err != nil {
		return nil, err
	}
	pruned := func(pc int) bool { return pc < len(sitePlan) && sitePlan[pc] < 0 }
	var srcs []isa.Reg
	// transfer applies block b's instructions in reverse to live (the set
	// live after b), marking relevant defs in marks when it is non-nil.
	transfer := func(b Block, live uint32, marks []bool) uint32 {
		for pc := b.End - 1; pc >= b.Start; pc-- {
			in := code[pc]
			switch {
			case in.Op == isa.ASSOCADDR:
				if pruned(pc) {
					continue
				}
				if pc == b.Start || code[pc-1].Op != isa.ST {
					live = allRegs
				} else if rt := code[pc-1].Rt; rt != 0 {
					live |= 1 << rt
				}
			case in.Op.IsALU() || in.Op == isa.LD:
				if in.Rd == 0 || live&(1<<in.Rd) == 0 {
					continue
				}
				if marks != nil {
					marks[pc] = true
				}
				live &^= 1 << in.Rd
				if in.Op == isa.LD {
					continue
				}
				srcs = in.SrcRegs(srcs[:0])
				for _, r := range srcs {
					if r != 0 {
						live |= 1 << r
					}
				}
			}
		}
		return live
	}

	liveIn := make([]uint32, len(g.Blocks))
	liveOut := make([]uint32, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for id := len(g.Blocks) - 1; id >= 0; id-- {
			b := g.Blocks[id]
			out := uint32(0)
			for _, s := range b.Succs {
				out |= liveIn[s]
			}
			if in := transfer(b, out, nil); out != liveOut[id] || in != liveIn[id] {
				liveOut[id], liveIn[id] = out, in
				changed = true
			}
		}
	}
	marks := make([]bool, len(code))
	for id, b := range g.Blocks {
		transfer(b, liveOut[id], marks)
	}
	return marks, nil
}
