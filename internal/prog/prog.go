// Package prog provides the program representation executed by the
// simulator and a small assembler-style builder API used by the workload
// kernels. A Program holds one shared code image plus per-thread entry
// points; threads are distinguished at run time by the thread-id register
// convention (see Builder).
package prog

import (
	"fmt"
	"sort"
	"strings"

	"acr/internal/isa"
)

// Program is an executable image for the simulated machine.
type Program struct {
	Name string
	// Code is the shared instruction memory, indexed by PC.
	Code []isa.Instr
	// Entry is the PC at which every thread starts.
	Entry int
	// DataWords is the number of 64-bit words of data memory the program
	// requires. The loader sizes memory from it.
	DataWords int
	// Init seeds data memory before execution; may be nil. It runs once,
	// before any instruction, and its writes are *not* checkpoint events
	// (they model the pre-ROI program phase).
	Init func(mem []int64)
	// Labels maps symbolic label names to PCs, for diagnostics.
	Labels map[string]int
}

// Validate checks structural well-formedness: branch targets in range,
// defined opcodes, register indices in range, that every ASSOCADDR
// immediately follows a store with the same address operands (the paper
// requires ASSOC-ADDR to execute atomically with its store), and that the
// code ends in HALT or JMP, so no thread can fall through past the last
// instruction.
func (p *Program) Validate() error {
	n := len(p.Code)
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("prog %s: entry %d out of range [0,%d)", p.Name, p.Entry, n)
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("prog %s: pc %d: invalid op %d", p.Name, pc, in.Op)
		}
		if in.Rd >= isa.NumRegs || in.Rs >= isa.NumRegs || in.Rt >= isa.NumRegs {
			return fmt.Errorf("prog %s: pc %d: register out of range in %v", p.Name, pc, in)
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(n) {
				return fmt.Errorf("prog %s: pc %d: branch target %d out of range", p.Name, pc, in.Imm)
			}
		}
		if in.Op == isa.ASSOCADDR {
			if pc == 0 {
				return fmt.Errorf("prog %s: pc 0: ASSOCADDR without preceding store", p.Name)
			}
			prev := p.Code[pc-1]
			if prev.Op != isa.ST || prev.Rs != in.Rs || prev.Imm != in.Imm {
				return fmt.Errorf("prog %s: pc %d: ASSOCADDR does not pair with preceding store %v", p.Name, pc, prev)
			}
		}
	}
	if last := p.Code[n-1]; last.Op != isa.HALT && last.Op != isa.JMP {
		return fmt.Errorf("prog %s: pc %d: code ends in %v, so control falls through past the last instruction; end it with halt or jmp", p.Name, n-1, last)
	}
	return nil
}

// Disassemble renders the whole program as text, annotating label targets.
func (p *Program) Disassemble() string {
	target := make(map[int][]string)
	for name, pc := range p.Labels {
		target[pc] = append(target[pc], name)
	}
	var b strings.Builder
	for pc, in := range p.Code {
		for _, name := range target[pc] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%6d  %s\n", pc, in)
	}
	return b.String()
}

// Label is a forward-referenceable branch target handed out by a Builder.
type Label struct {
	id int
}

// Builder assembles a Program. The zero value is not usable; call New.
//
// Register conventions used by all workload kernels:
//
//	r0        hardwired zero
//	RegTID    (r31) thread id, preset by the loader
//	RegNTHR   (r30) thread count, preset by the loader
type Builder struct {
	name      string
	code      []isa.Instr
	labels    map[string]int
	pending   map[int][]int // label id -> pcs with unresolved targets
	placed    map[int]int   // label id -> pc
	nextLabel int
	dataWords int
	err       error
}

// Conventional registers preset by the loader for every thread.
const (
	RegTID  isa.Reg = 31
	RegNTHR isa.Reg = 30
)

// New returns a Builder for a program with the given name.
func New(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		pending: make(map[int][]int),
		placed:  make(map[int]int),
	}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instr) *Builder {
	b.code = append(b.code, in)
	return b
}

// Op3 emits a three-register ALU instruction rd <- rs op rt.
func (b *Builder) Op3(op isa.Op, rd, rs, rt isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

// OpI emits an immediate ALU instruction rd <- rs op imm.
func (b *Builder) OpI(op isa.Op, rd, rs isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Instr{Op: op, Rd: rd, Rs: rs, Imm: imm})
}

// Li loads a 32-bit sign-extended immediate into rd.
func (b *Builder) Li(rd isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.LI, Rd: rd, Imm: imm})
}

// Mov copies rs to rd.
func (b *Builder) Mov(rd, rs isa.Reg) *Builder {
	return b.Emit(isa.Instr{Op: isa.MOV, Rd: rd, Rs: rs})
}

// Ld emits rd <- mem[rs+off].
func (b *Builder) Ld(rd, rs isa.Reg, off int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.LD, Rd: rd, Rs: rs, Imm: off})
}

// St emits mem[rs+off] <- rt.
func (b *Builder) St(rt, rs isa.Reg, off int64) *Builder {
	return b.Emit(isa.Instr{Op: isa.ST, Rs: rs, Rt: rt, Imm: off})
}

// StAssoc emits a store immediately followed by the paired ASSOC-ADDR
// instruction, hinting to the ACR checkpoint handler that the stored value
// is a recomputation candidate (whether it actually is depends on the
// dynamic Slice the tracker derives and the length threshold).
func (b *Builder) StAssoc(rt, rs isa.Reg, off int64) *Builder {
	b.St(rt, rs, off)
	return b.Emit(isa.Instr{Op: isa.ASSOCADDR, Rs: rs, Imm: off})
}

// Barrier emits a full-program barrier.
func (b *Builder) Barrier() *Builder { return b.Emit(isa.Instr{Op: isa.BARRIER}) }

// Halt stops the executing thread.
func (b *Builder) Halt() *Builder { return b.Emit(isa.Instr{Op: isa.HALT}) }

// NewLabel allocates an unplaced label.
func (b *Builder) NewLabel() Label {
	b.nextLabel++
	return Label{id: b.nextLabel}
}

// Place binds l to the current PC. A label may be placed once.
func (b *Builder) Place(l Label) *Builder {
	if _, dup := b.placed[l.id]; dup {
		b.fail("label %d placed twice", l.id)
		return b
	}
	pc := b.PC()
	b.placed[l.id] = pc
	for _, site := range b.pending[l.id] {
		b.code[site].Imm = int64(pc)
	}
	delete(b.pending, l.id)
	return b
}

// PlaceNamed binds l at the current PC and records name for disassembly.
func (b *Builder) PlaceNamed(l Label, name string) *Builder {
	b.labels[name] = b.PC()
	return b.Place(l)
}

func (b *Builder) branch(op isa.Op, rs, rt isa.Reg, l Label) *Builder {
	imm := int64(0)
	if pc, ok := b.placed[l.id]; ok {
		imm = int64(pc)
	} else {
		b.pending[l.id] = append(b.pending[l.id], b.PC())
	}
	return b.Emit(isa.Instr{Op: op, Rs: rs, Rt: rt, Imm: imm})
}

// Beq branches to l when rs == rt.
func (b *Builder) Beq(rs, rt isa.Reg, l Label) *Builder { return b.branch(isa.BEQ, rs, rt, l) }

// Bne branches to l when rs != rt.
func (b *Builder) Bne(rs, rt isa.Reg, l Label) *Builder { return b.branch(isa.BNE, rs, rt, l) }

// Blt branches to l when rs < rt (signed).
func (b *Builder) Blt(rs, rt isa.Reg, l Label) *Builder { return b.branch(isa.BLT, rs, rt, l) }

// Bge branches to l when rs >= rt (signed).
func (b *Builder) Bge(rs, rt isa.Reg, l Label) *Builder { return b.branch(isa.BGE, rs, rt, l) }

// Jmp jumps unconditionally to l.
func (b *Builder) Jmp(l Label) *Builder { return b.branch(isa.JMP, 0, 0, l) }

// Loop emits a counted loop: it initialises ctr to 0, runs body(ctr), and
// increments until ctr == bound (bound is a register, evaluated each
// iteration). body must not clobber ctr or bound.
func (b *Builder) Loop(ctr, bound isa.Reg, body func()) *Builder {
	b.Li(ctr, 0)
	head := b.NewLabel()
	done := b.NewLabel()
	b.Place(head)
	b.Bge(ctr, bound, done)
	body()
	b.OpI(isa.ADDI, ctr, ctr, 1)
	b.Jmp(head)
	b.Place(done)
	return b
}

// LoopConst is Loop with a constant trip count; it burns a scratch register
// for the bound.
func (b *Builder) LoopConst(ctr, scratch isa.Reg, n int64, body func()) *Builder {
	b.Li(scratch, n)
	return b.Loop(ctr, scratch, body)
}

// Data reserves n words of data memory and returns the base word address.
func (b *Builder) Data(n int) int64 {
	base := b.dataWords
	b.dataWords += n
	return int64(base)
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Build finalises the program. It fails if any label is still unresolved or
// the assembled program does not validate.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.pending) > 0 {
		var sites []int
		for _, pcs := range b.pending {
			sites = append(sites, pcs...)
		}
		sort.Ints(sites)
		return nil, fmt.Errorf("prog %s: %d unresolved labels, branched to from pcs %v", b.name, len(b.pending), sites)
	}
	p := &Program{
		Name:      b.name,
		Code:      b.code,
		DataWords: b.dataWords,
		Labels:    b.labels,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for use in tests and workload
// constructors whose programs are statically known to be well-formed.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
