package isa

import "math"

// EvalALU computes the result of a pure ALU operation. a and b are the
// values of Rs and Rt; c is the value of Rd before the instruction (only
// FMA reads it); imm is the immediate field. EvalALU is the single source
// of truth for arithmetic semantics: the CPU interpreter and the Slice
// recomputation engine both call it, which guarantees that a recomputed
// value is bit-identical to the originally stored one.
//
// EvalALU panics if op is not an ALU operation; callers gate on Op.IsALU.
//
// Sharing this one function is also what makes floating-point results
// bit-identical between the interpreter and the recomputation engine even
// for NaN payloads, whose propagation the language does not pin down
// across separately compiled expressions.
func EvalALU(op Op, a, b, c, imm int64) int64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case MUL:
		return a * b
	case DIV:
		if b == 0 {
			return 0 // architected: division by zero yields zero
		}
		return a / b
	case REM:
		if b == 0 {
			return 0
		}
		return a % b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << (uint64(b) & 63)
	case SHR:
		return int64(uint64(a) >> (uint64(b) & 63))
	case SLT:
		if a < b {
			return 1
		}
		return 0
	case ADDI:
		return a + imm
	case MULI:
		return a * imm
	case ANDI:
		return a & imm
	case ORI:
		return a | imm
	case XORI:
		return a ^ imm
	case SHLI:
		return a << (uint64(imm) & 63)
	case SHRI:
		return int64(uint64(a) >> (uint64(imm) & 63))
	case LUI:
		return imm << 32
	case LI:
		return imm
	case MOV:
		return a
	case FADD:
		return f2i(i2f(a) + i2f(b))
	case FSUB:
		return f2i(i2f(a) - i2f(b))
	case FMUL:
		return f2i(i2f(a) * i2f(b))
	case FDIV:
		return f2i(i2f(a) / i2f(b))
	case FNEG:
		return f2i(-i2f(a))
	case FABS:
		return f2i(math.Abs(i2f(a)))
	case FSQRT:
		return f2i(math.Sqrt(i2f(a)))
	case FMA:
		return f2i(i2f(a)*i2f(b) + i2f(c))
	case CVTF:
		return f2i(float64(a))
	case CVTI:
		return int64(i2f(a))
	case FLT:
		if i2f(a) < i2f(b) {
			return 1
		}
		return 0
	}
	panic("isa: EvalALU on non-ALU op " + op.String())
}

// BranchTaken reports whether a branch with source values a, b is taken.
// JMP is unconditionally taken. BranchTaken panics on non-branch ops.
func BranchTaken(op Op, a, b int64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return a < b
	case BGE:
		return a >= b
	case JMP:
		return true
	}
	panic("isa: BranchTaken on non-branch op " + op.String())
}

// F2I converts a float64 to its register (bit pattern) representation.
func F2I(f float64) int64 { return f2i(f) }

// I2F interprets a register value as a float64.
func I2F(v int64) float64 { return i2f(v) }

func f2i(f float64) int64 { return int64(math.Float64bits(f)) }

func i2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
