package slice

import (
	"fmt"
	"math"
	"strings"

	"acr/internal/isa"
)

// COp is one instruction of a compiled Slice. Operand fields index the
// evaluation slot array: slots [0, NumInputs) hold buffered inputs, slot
// NumInputs+j holds the result of op j. -1 marks an unused operand.
type COp struct {
	Op      isa.Op
	A, B, C int32
	Imm     int64
}

// Compiled is a standalone, embeddable Slice: the object the paper's
// compiler pass bakes into the binary, together with the snapshot of its
// input operands captured by ASSOC-ADDR into the input-operand buffer
// (paper §II-B). It is immutable after construction and independent of the
// Tracker arena.
type Compiled struct {
	// Inputs are the buffered input operand values, in slot order.
	Inputs []int64
	// Ops are the Slice instructions in dependence (topological) order.
	// The value produced by the last op is the recomputed value.
	Ops []COp
}

// Len returns the Slice length in instructions — the quantity the paper's
// threshold gates on (§III-A).
func (c *Compiled) Len() int { return len(c.Ops) }

// NumInputs returns the number of buffered input operands.
func (c *Compiled) NumInputs() int { return len(c.Inputs) }

// FloatOps and IntOps split the Slice length by unit, for energy charging.
func (c *Compiled) FloatOps() (n int) {
	for _, op := range c.Ops {
		if op.Op.IsFloat() {
			n++
		}
	}
	return n
}

// IntOps returns the number of integer ALU instructions in the Slice.
func (c *Compiled) IntOps() int { return len(c.Ops) - c.FloatOps() }

// StorageWords returns the number of 64-bit words of on-chip storage the
// AddrMap/input buffer spends on this Slice instance (inputs + one word per
// two ops for the embedded code reference, rounded up).
func (c *Compiled) StorageWords() int {
	return len(c.Inputs) + (len(c.Ops)+1)/2
}

// Eval recomputes the value on scratch (the scratchpad of paper §II-B;
// grown as needed). A Slice with zero ops returns its single input (a pure
// buffered value) or 0 if it has no inputs (the zero recipe).
func (c *Compiled) Eval(scratch []int64) int64 {
	need := len(c.Inputs) + len(c.Ops)
	if need == 0 {
		return 0
	}
	if cap(scratch) < need {
		scratch = make([]int64, need)
	}
	scratch = scratch[:need]
	copy(scratch, c.Inputs)
	get := func(i int32) int64 {
		if i < 0 {
			return 0
		}
		return scratch[i]
	}
	base := len(c.Inputs)
	for j, op := range c.Ops {
		scratch[base+j] = isa.EvalALU(op.Op, get(op.A), get(op.B), get(op.C), op.Imm)
	}
	return scratch[need-1]
}

// String renders the Slice as pseudo-assembly over slots s0, s1, ...
func (c *Compiled) String() string {
	var b strings.Builder
	for i, v := range c.Inputs {
		fmt.Fprintf(&b, "s%d = input(%d)\n", i, v)
	}
	operand := func(i int32) string {
		if i < 0 {
			return "-"
		}
		return fmt.Sprintf("s%d", i)
	}
	base := len(c.Inputs)
	for j, op := range c.Ops {
		switch {
		case op.Op.HasImm() && op.A >= 0:
			fmt.Fprintf(&b, "s%d = %s %s, %d\n", base+j, op.Op, operand(op.A), op.Imm)
		case op.Op.HasImm():
			fmt.Fprintf(&b, "s%d = %s %d\n", base+j, op.Op, op.Imm)
		case op.C >= 0:
			fmt.Fprintf(&b, "s%d = %s %s, %s, %s\n", base+j, op.Op, operand(op.A), operand(op.B), operand(op.C))
		case op.B >= 0:
			fmt.Fprintf(&b, "s%d = %s %s, %s\n", base+j, op.Op, operand(op.A), operand(op.B))
		default:
			fmt.Fprintf(&b, "s%d = %s %s\n", base+j, op.Op, operand(op.A))
		}
	}
	return b.String()
}

// unusedEnc marks an unused operand during compilation.
const unusedEnc = int32(math.MinInt32)

// scratchSlots sizes the compile visited-table. A compilable recipe has
// size < SatSize, so its DAG holds at most 254 op nodes and 3×254 leaves
// (~1016 refs); 8192 slots keeps the open-addressed probe load under 1/8.
const scratchSlots = 1 << 13

// compileScratch is the reusable visited-table of the Compile walk: an
// epoch-stamped open-addressed map from arena Ref to evaluation slot,
// replacing a per-call map[Ref]int32. Bumping the epoch invalidates all
// entries in O(1), so back-to-back Compiles (one per ASSOC-ADDR) never
// clear or allocate.
type compileScratch struct {
	refs  [scratchSlots]Ref
	slots [scratchSlots]int32
	epoch [scratchSlots]uint32
	cur   uint32
}

// begin invalidates all entries for a new compilation.
func (s *compileScratch) begin() {
	s.cur++
	if s.cur == 0 { // epoch wrapped: hard-clear stale stamps once per 2^32
		s.epoch = [scratchSlots]uint32{}
		s.cur = 1
	}
}

func scratchHome(r Ref) uint32 {
	return uint32((uint64(uint32(r)) * 0x9E3779B97F4A7C15) >> (64 - 13))
}

func (s *compileScratch) get(r Ref) (int32, bool) {
	for i, n := scratchHome(r), 0; ; i, n = (i+1)&(scratchSlots-1), n+1 {
		if s.epoch[i] != s.cur {
			return 0, false
		}
		if s.refs[i] == r {
			return s.slots[i], true
		}
		if n >= scratchSlots {
			panic("slice: compile scratch overflow (recipe DAG exceeds size bound)")
		}
	}
}

func (s *compileScratch) set(r Ref, v int32) {
	for i, n := scratchHome(r), 0; ; i, n = (i+1)&(scratchSlots-1), n+1 {
		if s.epoch[i] != s.cur || s.refs[i] == r {
			s.refs[i], s.slots[i], s.epoch[i] = r, v, s.cur
			return
		}
		if n >= scratchSlots {
			panic("slice: compile scratch overflow (recipe DAG exceeds size bound)")
		}
	}
}

// Compile serialises the recipe r into a standalone Slice, deduplicating
// shared sub-expressions, or reports false if the recipe is opaque or needs
// more than maxOps instructions. The walk aborts as soon as the op budget
// is exceeded, so Compile stays cheap even when invoked on every
// ASSOC-ADDR. Every emitted Slice is gated through Validate — the runtime
// counterpart of the static recomputability proof — so dynamic extraction
// can never hand recovery a Slice violating the soundness contract.
func (t *Tracker) Compile(core int, r Ref, maxOps int) (*Compiled, bool) {
	c, err := t.CompileVerified(core, r, maxOps)
	return c, err == nil
}

// errSliceBudget is the non-diagnostic rejection: the recipe is opaque or
// exceeds the op budget (the common case, paper §III-A's length threshold).
var errSliceBudget = fmt.Errorf("slice: recipe is opaque or exceeds the op budget")

// CompileVerified is Compile with the rejection reason: the budget sentinel
// for opaque/over-long recipes, or a Validate diagnostic when the emitted
// Slice violates the soundness contract (which would indicate recipe
// tracker corruption — recovery must reject it rather than replay it).
func (t *Tracker) CompileVerified(core int, r Ref, maxOps int) (*Compiled, error) {
	return t.CompileInto(core, nil, r, maxOps)
}

// CompileInto is CompileVerified compiling into a recycled Compiled shell:
// into's Inputs/Ops backing arrays are truncated and reused, so the
// steady-state association path (recycled shells supplied by the AddrMap
// pool) performs no heap allocation. into == nil allocates a fresh shell.
// Unlike the tracking methods, compiles share the Tracker-wide visited
// table and must not run concurrently — see the Tracker doc.
func (t *Tracker) CompileInto(core int, into *Compiled, r Ref, maxOps int) (*Compiled, error) {
	s := &t.shards[core]
	if s.at(r).kind == kindOpaque {
		return nil, errSliceBudget
	}
	c := into
	if c == nil {
		c = &Compiled{} // cold path: only when the caller supplies no recycled shell
	} else {
		c.Inputs = c.Inputs[:0]
		c.Ops = c.Ops[:0]
	}
	t.cTab.begin()
	if !s.emit(&t.cTab, r, c, maxOps) {
		return nil, errSliceBudget
	}
	// Fix up operand encodings: inputs keep their index; op results are
	// encoded as ^opIndex and shift by the final input count.
	n := int32(len(c.Inputs))
	fix := func(v int32) int32 { // non-escaping closure, stack-allocated and inlined
		switch {
		case v == unusedEnc:
			return -1
		case v < 0:
			return n + ^v
		default:
			return v
		}
	}
	for j := range c.Ops {
		c.Ops[j].A = fix(c.Ops[j].A)
		c.Ops[j].B = fix(c.Ops[j].B)
		c.Ops[j].C = fix(c.Ops[j].C)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// emit appends r's subgraph to c in topological order. During the walk,
// tab holds: input index (≥ 0) for leaves, ^opIndex (< 0) for ops.
func (s *shard) emit(tab *compileScratch, r Ref, c *Compiled, maxOps int) bool {
	if _, done := tab.get(r); done {
		return true
	}
	n := s.at(r)
	switch n.kind {
	case kindOpaque:
		return false
	case kindZero, kindInput:
		val := int64(0)
		if n.kind == kindInput {
			val = n.val
		}
		c.Inputs = append(c.Inputs, val) // recycled shell's backing array, amortized across compiles
		tab.set(r, int32(len(c.Inputs)-1))
		return true
	}
	for _, ch := range [3]Ref{n.a, n.b, n.c} {
		if ch == noRef {
			continue
		}
		if !s.emit(tab, ch, c, maxOps) {
			return false
		}
	}
	if len(c.Ops) >= maxOps {
		return false
	}
	op := COp{Op: n.op, A: unusedEnc, B: unusedEnc, C: unusedEnc, Imm: n.imm}
	if n.a != noRef {
		op.A, _ = tab.get(n.a)
	}
	if n.b != noRef {
		op.B, _ = tab.get(n.b)
	}
	if n.c != noRef {
		op.C, _ = tab.get(n.c)
	}
	c.Ops = append(c.Ops, op) // recycled shell's backing array, amortized across compiles
	tab.set(r, ^int32(len(c.Ops)-1))
	return true
}
