// Package slice implements the recomputation substrate of ACR: extraction,
// representation and evaluation of Slices (paper §II-B, §III-A).
//
// A Slice is the backward slice of the value written by a store, restricted
// to arithmetic/logic instructions: loads (and any other opaque producers)
// cut the slice and their values become buffered *input operands*. The paper
// extracts Slices with a Pin-based compiler pass that unrolls loops and
// embeds qualifying Slices (length ≤ threshold) into the binary; this
// package derives the identical object at simulation time by maintaining,
// per architectural register, the expression DAG ("recipe") of its current
// value. The invariant — evaluating a register's recipe always reproduces
// the register's architectural value bit-for-bit — is what makes amnesic
// recovery exact.
package slice

import "acr/internal/isa"

// Ref identifies a recipe node inside one core's shard of a Tracker. Refs
// are invalidated by arena compaction; they must not be stored outside the
// Tracker. Durable consumers (the AddrMap) call Compile to obtain a
// standalone Slice.
type Ref = int32

const noRef Ref = -1

// SatSize is the saturation value of the tree-size field: a recipe whose
// unrolled instruction count reaches SatSize is treated as unrecomputable
// (it could never satisfy any threshold the paper sweeps, which tops out at
// 50 instructions).
const SatSize = 255

type nodeKind uint8

const (
	kindOp     nodeKind = iota // interior ALU node
	kindInput                  // buffered input operand (load result or live-in)
	kindZero                   // the hardwired zero register
	kindOpaque                 // unrecomputable value
)

type node struct {
	kind nodeKind
	op   isa.Op
	size uint8 // saturating unrolled instruction count
	// depth is the longest op chain from the node to a leaf. Every op on
	// that chain is a distinct DAG node, so a compile emits at least depth
	// ops: a recipe deeper than a cap can never compile under it. It fits
	// the byte of padding after size, keeping the node at 32 bytes.
	depth uint8
	a     Ref
	b     Ref
	c     Ref
	imm   int64
	val   int64 // captured value for kindInput leaves
}

// shard is one core's private recipe store. Recipes never reference nodes
// of another core's shard — registers are core-private and loads cut
// Slices.
type shard struct {
	arena   []node
	opaque  Ref
	zero    Ref
	recipes [isa.NumRegs]Ref
	// compactLimit triggers arena compaction; live recipes are bounded
	// (≤ SatSize nodes per register), so compaction keeps memory flat.
	compactLimit int

	// spare is the second arena buffer: compact() moves live nodes into
	// it and the buffers swap roles, so no compaction allocates once both
	// have reached compactLimit capacity.
	spare []node
	// remap holds new-ref+1 per old arena index during compaction
	// (0 = not yet moved), so it can be bulk-cleared; stack is the
	// explicit DFS work list replacing the recursive walk.
	remap []Ref
	stack []Ref
	// liveHi is the high-water mark of the post-compaction live set.
	liveHi int
}

// Tracker maintains per-core, per-register recipes. It is the simulator's
// stand-in for the paper's compiler pass plus the input-operand buffer.
//
// The tracker sees only the instructions its caller reports. The machine
// reports just the ALU results and loads a Slice can read
// (analysis.SliceRelevance); a register whose defining instruction went
// unreported holds a stale recipe, which no ASSOC-ADDR site reads before the
// register is next redefined. LimitDepth additionally turns every recipe too
// deep to compile under any site's cap into the opaque sentinel. A tracker
// fresh from NewTracker is uncapped and is the reference both are checked
// against.
//
// The per-instruction path (OnALU/OnLoad → push) appends into a pre-sized
// per-core arena and performs no other work; arenas are kept flat by
// periodic compaction, which retains only nodes reachable from register
// recipes. Compaction double-buffers the arena and reuses its remap and
// work-stack scratch, so steady-state tracking is allocation-free.
//
// The tracker is sharded by core, but Compile/CompileInto reuse one
// Tracker-wide visited table (cTab) — a per-shard table at 32 cores costs
// ~3 MB of scratch and measurably thrashes the cache. A Tracker is used
// from one goroutine: the simulator runs amnesic strategies, the only ones
// that track, in serial quanta.
type Tracker struct {
	shards []shard
	// maxDepth is the deepest recipe OnALU keeps; deeper ones become
	// opaque (LimitDepth).
	maxDepth int

	// cTab is the epoch-stamped visited table reused by Compile.
	cTab compileScratch
}

// arenaBudget bounds the total arena nodes across all shards between
// compactions — the same resident-memory budget the pre-sharding single
// arena ran with. Each shard gets budget/nCores (floored), so machine-wide
// footprint and amortized compaction cost stay flat as core count grows
// instead of multiplying by it.
const arenaBudget = 1 << 16

// minCompactLimit floors the per-shard limit so small sweeps don't thrash;
// compact() auto-raises the limit when a shard's live set outgrows it.
const minCompactLimit = 1 << 11

// NewTracker returns a tracker for nCores cores with all registers holding
// the zero recipe (registers are architecturally zero at program start).
func NewTracker(nCores int) *Tracker {
	t := &Tracker{shards: make([]shard, nCores), maxDepth: SatSize}
	limit := arenaBudget / nCores
	if limit < minCompactLimit {
		limit = minCompactLimit
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.compactLimit = limit
		s.arena = make([]node, 0, limit/4)
		s.opaque = s.push(node{kind: kindOpaque, size: SatSize, depth: SatSize})
		s.zero = s.push(node{kind: kindZero, size: 0})
		for r := range s.recipes {
			s.recipes[r] = s.zero
		}
	}
	return t
}

func (s *shard) push(n node) Ref {
	s.arena = append(s.arena, n)
	return Ref(len(s.arena) - 1)
}

func (s *shard) at(r Ref) *node { return &s.arena[r] }

func (s *shard) recipe(reg isa.Reg) Ref {
	if reg == 0 {
		return s.zero
	}
	return s.recipes[reg]
}

func (s *shard) setRecipe(reg isa.Reg, r Ref) {
	if reg == 0 {
		return
	}
	s.recipes[reg] = r
	if len(s.arena) >= s.compactLimit {
		s.compact()
	}
}

// LimitDepth makes OnALU replace every recipe deeper than maxOps by the
// opaque sentinel. A compile emits at least as many ops as its recipe is
// deep, so with maxOps the largest cap any Slice is compiled under, every
// compile decides exactly as it would on an uncapped tracker; operations
// over the sentinel then stop at their first operand instead of pushing.
func (t *Tracker) LimitDepth(maxOps int) {
	t.maxDepth = min(maxOps, SatSize)
}

// Recipe returns the recipe of reg on core.
func (t *Tracker) Recipe(core int, reg isa.Reg) Ref {
	return t.shards[core].recipe(reg)
}

// Size returns the unrolled instruction count of core's recipe r (SatSize
// if saturated/unrecomputable).
func (t *Tracker) Size(core int, r Ref) int { return int(t.shards[core].at(r).size) }

// OnLoad records that a load wrote val into rd: the recipe becomes a
// buffered-input leaf capturing the loaded value (loads cut Slices and
// their results are input operands, paper §III-A / Fig. 3).
func (t *Tracker) OnLoad(core int, rd isa.Reg, val int64) {
	s := &t.shards[core]
	s.setRecipe(rd, s.push(node{kind: kindInput, val: val}))
}

// ResetCore resets every register of core to input leaves capturing vals
// (vals[0] is ignored; r0 stays the zero recipe).
func (t *Tracker) ResetCore(core int, vals *[isa.NumRegs]int64) {
	s := &t.shards[core]
	for r := 1; r < isa.NumRegs; r++ {
		s.recipes[r] = s.push(node{kind: kindInput, val: vals[r]})
	}
	if len(s.arena) >= s.compactLimit {
		s.compact()
	}
}

// OnALU updates rd's recipe for the executed ALU instruction in. Every ALU
// op writes in.Rd (a write to r0 is discarded by setRecipe).
func (t *Tracker) OnALU(core int, in isa.Instr) {
	s := &t.shards[core]
	var a, b, c Ref = noRef, noRef, noRef
	switch in.Op {
	case isa.LI, isa.LUI:
		// No register sources.
	case isa.MOV, isa.FNEG, isa.FABS, isa.FSQRT, isa.CVTF, isa.CVTI,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
		a = s.recipe(in.Rs)
	case isa.FMA:
		a = s.recipe(in.Rs)
		b = s.recipe(in.Rt)
		c = s.recipe(in.Rd)
	default:
		a = s.recipe(in.Rs)
		b = s.recipe(in.Rt)
	}
	size, depth := 1, 0
	for _, ch := range [3]Ref{a, b, c} {
		if ch == noRef {
			continue
		}
		n := s.at(ch)
		if n.kind == kindOpaque {
			s.setRecipe(in.Rd, s.opaque)
			return
		}
		size += int(n.size)
		depth = max(depth, int(n.depth))
	}
	depth++
	if size >= SatSize || depth > t.maxDepth {
		s.setRecipe(in.Rd, s.opaque)
		return
	}
	s.setRecipe(in.Rd, s.push(node{
		kind: kindOp, op: in.Op, size: uint8(size), depth: uint8(depth),
		a: a, b: b, c: c, imm: in.Imm,
	}))
}

// ArenaLen reports the number of live arena nodes across all shards
// (diagnostics/tests).
func (t *Tracker) ArenaLen() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].arena)
	}
	return n
}

// compact rebuilds the shard's arena keeping only nodes reachable from
// register recipes. Reachability is bounded: every live recipe has tree
// size < SatSize, so the compacted arena is small regardless of execution
// length. The walk is iterative (explicit work stack) over a bulk-cleared
// remap array, and the surviving nodes move into the spare buffer, which
// is pre-sized from the live-set high-water mark so the following
// compactLimit pushes never reallocate.
func (s *shard) compact() {
	if cap(s.remap) < len(s.arena) {
		s.remap = make([]Ref, len(s.arena))
	}
	remap := s.remap[:len(s.arena)]
	clear(remap) // 0 = not moved; stored values are new ref + 1

	newArena := s.spare[:0]
	if cap(newArena) < s.compactLimit {
		newArena = make([]node, 0, s.compactLimit)
	}
	newArena = append(newArena, s.arena[s.opaque], s.arena[s.zero])
	remap[s.opaque] = 1
	remap[s.zero] = 2

	stack := s.stack[:0]
	for i, root := range s.recipes {
		if remap[root] == 0 {
			stack = append(stack, root)
			for len(stack) > 0 {
				r := stack[len(stack)-1]
				if remap[r] != 0 {
					stack = stack[:len(stack)-1]
					continue
				}
				n := &s.arena[r]
				// Children move first; push in reverse so they are
				// processed a, b, c.
				ready := true
				if n.c != noRef && remap[n.c] == 0 {
					stack = append(stack, n.c)
					ready = false
				}
				if n.b != noRef && remap[n.b] == 0 {
					stack = append(stack, n.b)
					ready = false
				}
				if n.a != noRef && remap[n.a] == 0 {
					stack = append(stack, n.a)
					ready = false
				}
				if !ready {
					continue
				}
				nn := *n
				if nn.a != noRef {
					nn.a = remap[nn.a] - 1
				}
				if nn.b != noRef {
					nn.b = remap[nn.b] - 1
				}
				if nn.c != noRef {
					nn.c = remap[nn.c] - 1
				}
				newArena = append(newArena, nn)
				remap[r] = Ref(len(newArena))
				stack = stack[:len(stack)-1]
			}
		}
		s.recipes[i] = remap[root] - 1
	}
	s.stack = stack[:0]
	s.spare = s.arena[:0]
	s.arena = newArena
	s.opaque = 0
	s.zero = 1
	if len(s.arena) > s.liveHi {
		s.liveHi = len(s.arena)
	}
	if len(s.arena)*2 > s.compactLimit {
		s.compactLimit = len(s.arena) * 2
	}
}
