// Package isa defines the instruction set of the simulated machine.
//
// The ISA is a small RISC-like load/store architecture with 32 general
// purpose 64-bit registers. Floating point operations reinterpret register
// contents as IEEE-754 float64. The ISA carries one extension beyond a
// textbook RISC: the ASSOCADDR instruction from the ACR paper, which
// associates the memory address written by the adjacent store with the
// backward Slice that can recompute the stored value (paper §III-A).
package isa

import "fmt"

// NumRegs is the number of general purpose registers. Register 0 is
// hardwired to zero, as in MIPS/RISC-V.
const NumRegs = 32

// Reg identifies a general purpose register.
type Reg uint8

// String returns the assembly name of the register (r0..r31).
func (r Reg) String() string { return fmt.Sprintf("r%d", r) }

// Op enumerates the operations of the ISA.
type Op uint8

// Operations. Integer ALU ops come first, then floating point, then memory,
// control flow, and system operations. The split into categories is load
// bearing: Slices may contain only ops for which IsSliceable reports true.
const (
	NOP Op = iota

	// Integer ALU: rd <- rs OP rt (or imm for the *I forms).
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SHL
	SHR
	SLT // set rd=1 if rs < rt (signed)
	ADDI
	MULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	LUI // rd <- imm << 32
	LI  // rd <- imm (sign-extended 32-bit)
	MOV // rd <- rs

	// Floating point (registers reinterpreted as float64).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FSQRT
	FMA  // rd <- rs*rt + rd
	CVTF // rd <- float64(int64(rs))
	CVTI // rd <- int64(float64(rs))
	FLT  // rd <- 1 if f(rs) < f(rt)

	// Memory: word (64-bit) granularity. Address = rs + imm (word units).
	LD // rd <- mem[rs+imm]
	ST // mem[rs+imm] <- rt

	// Control flow. Branch targets are absolute instruction indices held
	// in imm (the assembler resolves labels).
	BEQ // if rs == rt goto imm
	BNE
	BLT
	BGE
	JMP  // goto imm
	HALT // stop this hardware thread

	// System.
	BARRIER // synchronise with all other threads of the program
	// ASSOCADDR executes atomically with the store that precedes it in
	// program order, associating the store's effective address with the
	// Slice able to recompute the stored value (paper §III-A). The
	// simulator's ACR checkpoint handler consumes it; on a machine
	// without ACR it is a NOP.
	ASSOCADDR

	numOps
)

var opNames = [...]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", SLT: "slt",
	ADDI: "addi", MULI: "muli", ANDI: "andi", ORI: "ori", XORI: "xori",
	SHLI: "shli", SHRI: "shri", LUI: "lui", LI: "li", MOV: "mov",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FABS: "fabs", FSQRT: "fsqrt", FMA: "fma", CVTF: "cvtf", CVTI: "cvti",
	FLT: "flt",
	LD:  "ld", ST: "st",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", JMP: "jmp",
	HALT: "halt", BARRIER: "barrier", ASSOCADDR: "assocaddr",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// IsALU reports whether o is a pure register-to-register arithmetic/logic
// operation (integer or floating point). Exactly these ops may appear in a
// Slice: the paper requires Slices to contain no memory instructions and no
// branches (§II-B, §III-A).
func (o Op) IsALU() bool {
	switch o {
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SHL, SHR, SLT,
		ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, LUI, LI, MOV,
		FADD, FSUB, FMUL, FDIV, FNEG, FABS, FSQRT, FMA, CVTF, CVTI, FLT:
		return true
	}
	return false
}

// IsFloat reports whether o operates on floating point data. Used by the
// energy model, which charges FPU ops more than integer ALU ops.
func (o Op) IsFloat() bool {
	switch o {
	case FADD, FSUB, FMUL, FDIV, FNEG, FABS, FSQRT, FMA, CVTF, CVTI, FLT:
		return true
	}
	return false
}

// IsMem reports whether o accesses data memory.
func (o Op) IsMem() bool { return o == LD || o == ST }

// IsBranch reports whether o may redirect control flow.
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, JMP:
		return true
	}
	return false
}

// HasImm reports whether o consumes the instruction's immediate field.
func (o Op) HasImm() bool {
	switch o {
	case ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, LUI, LI,
		LD, ST, BEQ, BNE, BLT, BGE, JMP, ASSOCADDR:
		return true
	}
	return false
}

// Instr is one machine instruction. The layout is a fixed four-operand
// format; unused fields are zero. Imm holds sign-extended immediates,
// absolute branch targets, or (for LD/ST) the word offset added to Rs.
type Instr struct {
	Op  Op
	Rd  Reg   // destination (LD: destination; ST: unused)
	Rs  Reg   // first source / base address register
	Rt  Reg   // second source / store data register
	Imm int64 // immediate / branch target / address offset
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch {
	case in.Op == NOP || in.Op == HALT || in.Op == BARRIER:
		return in.Op.String()
	case in.Op == JMP:
		return fmt.Sprintf("jmp %d", in.Imm)
	case in.Op == LD:
		return fmt.Sprintf("ld %s, %d(%s)", in.Rd, in.Imm, in.Rs)
	case in.Op == ST:
		return fmt.Sprintf("st %s, %d(%s)", in.Rt, in.Imm, in.Rs)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs, in.Rt, in.Imm)
	case in.Op == LI || in.Op == LUI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case in.Op == ASSOCADDR:
		return fmt.Sprintf("assocaddr %d(%s)", in.Imm, in.Rs)
	case in.Op == MOV || in.Op == FNEG || in.Op == FABS || in.Op == FSQRT ||
		in.Op == CVTF || in.Op == CVTI:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case in.Op.HasImm():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	}
}

// SrcRegs appends to dst the registers the instruction reads, and returns
// the extended slice. Register 0 reads are included (they read the
// hardwired zero).
func (in Instr) SrcRegs(dst []Reg) []Reg {
	switch in.Op {
	case NOP, HALT, BARRIER, JMP, LI, LUI:
		return dst
	case MOV, FNEG, FABS, FSQRT, CVTF, CVTI:
		return append(dst, in.Rs)
	case ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI:
		return append(dst, in.Rs)
	case LD:
		return append(dst, in.Rs)
	case ST:
		return append(dst, in.Rs, in.Rt)
	case BEQ, BNE, BLT, BGE:
		return append(dst, in.Rs, in.Rt)
	case FMA:
		return append(dst, in.Rs, in.Rt, in.Rd)
	case ASSOCADDR:
		return append(dst, in.Rs)
	default: // three-operand ALU
		return append(dst, in.Rs, in.Rt)
	}
}

// BranchTarget returns the absolute instruction index the instruction may
// redirect control flow to, and true; or 0 and false for non-branches.
func (in Instr) BranchTarget() (int, bool) {
	if in.Op.IsBranch() {
		return int(in.Imm), true
	}
	return 0, false
}

// DstReg returns the register the instruction writes and true, or 0 and
// false if it writes none. Writes to r0 are discarded by the core but still
// reported here.
func (in Instr) DstReg() (Reg, bool) {
	switch in.Op {
	case NOP, HALT, BARRIER, JMP, ST, BEQ, BNE, BLT, BGE, ASSOCADDR:
		return 0, false
	default:
		return in.Rd, true
	}
}
