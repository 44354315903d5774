// Package analysis provides whole-program static analysis over isa
// programs: basic-block/control-flow-graph construction with branch-target
// resolution, the classic bit-vector dataflow analyses (reaching
// definitions, register liveness), dominance, and — layered on top — a lint
// pass suite and a Slice recomputability verifier that proves a
// slice.Static replay-safe before it is trusted by recovery.
//
// The package is the static half of the paper's compiler pass (§III,
// Fig. 3): where internal/slice derives Slices dynamically from the
// executed trace, analysis decides *ahead of execution* which stores have a
// provably recomputable backward slice and which programs are structurally
// sound enough to run at all. Everything operates on the []isa.Instr code
// image shared by prog.Program, so the same passes serve workload kernels,
// example programs and hand-built test windows.
package analysis

import (
	"errors"
	"fmt"

	"acr/internal/isa"
)

// Block is one basic block: the half-open instruction range [Start, End)
// with single-entry/single-exit control flow. Succs and Preds are block IDs.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of a code image. Blocks partition the code;
// every instruction belongs to exactly one block.
type CFG struct {
	Code   []isa.Instr
	Blocks []Block
	// Entry is the ID of the block containing the program entry point.
	Entry int

	blockOf []int // pc -> block ID
}

// BuildCFG partitions code into basic blocks and resolves branch targets.
// It fails when the code is empty, the entry is out of range, or any branch
// targets an instruction outside the code image — the static counterpart of
// the assembler's unresolved-label check.
func BuildCFG(code []isa.Instr, entry int) (*CFG, error) {
	n := len(code)
	if n == 0 {
		return nil, errors.New("analysis: empty code image")
	}
	if entry < 0 || entry >= n {
		return nil, fmt.Errorf("analysis: entry %d outside code [0,%d)", entry, n)
	}

	// Leaders: the entry, pc 0, every branch target, and every instruction
	// following a branch or HALT.
	leader := make([]bool, n)
	leader[0] = true
	leader[entry] = true
	for pc, in := range code {
		if t, ok := in.BranchTarget(); ok {
			if t < 0 || t >= n {
				return nil, fmt.Errorf("analysis: pc %d: %v targets %d, outside code [0,%d)", pc, in, t, n)
			}
			leader[t] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
		if in.Op == isa.HALT && pc+1 < n {
			leader[pc+1] = true
		}
	}

	g := &CFG{Code: code, blockOf: make([]int, n)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			id := len(g.Blocks)
			g.Blocks = append(g.Blocks, Block{ID: id, Start: start, End: pc})
			for i := start; i < pc; i++ {
				g.blockOf[i] = id
			}
			start = pc
		}
	}
	g.Entry = g.blockOf[entry]

	// Edges. A block ending in HALT has no successors; a conditional
	// branch has the target plus the fall-through; falling off the end of
	// the code image exits the program (the lint suite flags it).
	addEdge := func(from, to int) {
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
	}
	for id := range g.Blocks {
		b := &g.Blocks[id]
		last := code[b.End-1]
		if t, ok := last.BranchTarget(); ok {
			addEdge(id, g.blockOf[t])
			if last.Op != isa.JMP && b.End < n {
				addEdge(id, g.blockOf[b.End])
			}
			continue
		}
		if last.Op == isa.HALT {
			continue
		}
		if b.End < n {
			addEdge(id, g.blockOf[b.End])
		}
	}
	return g, nil
}

// BlockOf returns the ID of the block containing pc.
func (g *CFG) BlockOf(pc int) int { return g.blockOf[pc] }

// Reachable reports, per block, whether it is reachable from the entry.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{g.Entry}
	seen[g.Entry] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[id].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// ReversePostorder returns the reachable blocks in reverse postorder of a
// depth-first walk from the entry — the iteration order that makes the
// forward dataflow fixpoints converge in few passes.
func (g *CFG) ReversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var walk func(id int)
	walk = func(id int) {
		seen[id] = true
		for _, s := range g.Blocks[id].Succs {
			if !seen[s] {
				walk(s)
			}
		}
		post = append(post, id)
	}
	walk(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// reachableFrom reports, per block, whether it is reachable from block id
// by following one or more edges (id itself is included only when it lies
// on a cycle).
func (g *CFG) reachableFrom(id int) []bool {
	seen := make([]bool, len(g.Blocks))
	var stack []int
	for _, s := range g.Blocks[id].Succs {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
