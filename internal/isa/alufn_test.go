package isa

import (
	"math"
	"math/rand"
	"testing"
)

// TestEvalALUMatchesSwitch proves EvalALU, which dispatches through the
// specialised ALU table, equivalent to the reference switch interpreter
// over adversarial corners and a randomized sweep of every ALU op. This is
// the semantic anchor: the table must still compute what the switch
// computes.
// The only tolerated divergence is the NaN payload of floating-point
// results, which the language does not pin down across separately
// compiled expressions — both sides must then agree the result is NaN.
func TestEvalALUMatchesSwitch(t *testing.T) {
	corners := []int64{
		0, 1, -1, 2, -2, 63, 64, -63, -64,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		f2i(0.0), f2i(math.Copysign(0, -1)), f2i(1.5), f2i(-2.25),
		f2i(math.Inf(1)), f2i(math.Inf(-1)), f2i(math.NaN()),
		f2i(math.MaxFloat64), f2i(math.SmallestNonzeroFloat64),
	}
	rng := rand.New(rand.NewSource(42))
	randVal := func() int64 {
		if rng.Intn(3) == 0 {
			return corners[rng.Intn(len(corners))]
		}
		return int64(rng.Uint64())
	}

	for op := Op(0); op < numOps; op++ {
		if !op.IsALU() {
			continue
		}
		check := func(a, b, c, imm int64) {
			t.Helper()
			want := evalALUSwitch(op, a, b, c, imm)
			got := EvalALU(op, a, b, c, imm)
			if got != want {
				if op.IsFloat() && math.IsNaN(i2f(got)) && math.IsNaN(i2f(want)) {
					return // NaN payloads may differ across compiled expressions
				}
				t.Fatalf("%v(a=%#x b=%#x c=%#x imm=%#x): EvalALU %#x, reference switch %#x",
					op, a, b, c, imm, got, want)
			}
		}
		for _, a := range corners {
			for _, b := range corners {
				check(a, b, corners[(len(corners)/2)], b)
			}
		}
		for i := 0; i < 10_000; i++ {
			check(randVal(), randVal(), randVal(), randVal())
		}
	}
}

// TestEvalALURejectsNonALU pins EvalALU's contract on non-ALU ops.
func TestEvalALURejectsNonALU(t *testing.T) {
	for _, op := range []Op{NOP, LD, ST, BEQ, JMP, HALT, BARRIER, ASSOCADDR} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalALU(%v) did not panic", op)
				}
			}()
			EvalALU(op, 1, 2, 3, 4)
		}()
	}
}
