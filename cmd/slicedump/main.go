// Command slicedump demonstrates the compiler-pass half of ACR: it builds
// the paper's Fig. 3 running example (the sumArr store), derives the static
// backward slice, and shows how loads are cut out of it to form the ACR
// Slice with buffered inputs. With -bench it instead disassembles one of
// the NAS-like kernels and slices every store in the unrolled window.
//
// With -verify, every derived slice is additionally run through the
// analysis.Verifier replay-safety proof; the process exits non-zero if any
// slice is unsound, so the command doubles as a soundness gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"acr/internal/analysis"
	"acr/internal/isa"
	"acr/internal/slice"
	"acr/internal/workloads"
)

func main() {
	benchName := flag.String("bench", "", "disassemble and slice a benchmark kernel instead of the Fig. 3 example")
	threads := flag.Int("threads", 2, "thread count for -bench")
	maxStores := flag.Int("stores", 8, "number of stores to slice for -bench")
	verify := flag.Bool("verify", false, "prove each slice replay-safe; exit 1 if any is unsound")
	flag.Parse()

	if *benchName == "" {
		os.Exit(fig3(*verify))
	}
	bench, err := workloads.ByName(*benchName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicedump:", err)
		os.Exit(1)
	}
	p, err := bench.Build(*threads, workloads.ClassS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicedump:", err)
		os.Exit(1)
	}
	fmt.Printf("kernel %s: %d instructions, %d data words\n\n", p.Name, len(p.Code), p.DataWords)
	var v *analysis.Verifier
	if *verify {
		if v, err = analysis.NewVerifier(p.Code, p.Entry); err != nil {
			fmt.Fprintln(os.Stderr, "slicedump:", err)
			os.Exit(1)
		}
	}
	shown, unsound := 0, 0
	for i, in := range p.Code {
		if in.Op != isa.ST || shown >= *maxStores {
			continue
		}
		s, err := slice.Backward(p.Code, i)
		if err != nil {
			continue
		}
		fmt.Printf("store at pc %d: %v — backward slice %d instrs, %d buffered inputs\n",
			i, in, s.Len(), s.NumInputs())
		if v != nil {
			if err := v.Verify(s); err != nil {
				unsound++
				fmt.Printf("  UNSOUND: %v\n", err)
			} else {
				fmt.Println("  sound: replay-safe")
			}
		}
		shown++
	}
	if unsound > 0 {
		fmt.Fprintf(os.Stderr, "slicedump: %d of %d slices are not replay-safe\n", unsound, shown)
		os.Exit(1)
	}
}

// fig3 reproduces the paper's running example: sumArr computed from i and j
// (Fig. 3(a-d)). The loop is shown unrolled once, as footnote 1 prescribes.
// It returns the process exit code.
func fig3(verify bool) int {
	// Fig. 3(a) pseudo-code, one unrolled iteration:
	//   i, j loaded from memory; sumArr = i*i + (j << 1); store sumArr.
	code := []isa.Instr{
		{Op: isa.LD, Rd: 1, Rs: 10, Imm: 0},  // load i
		{Op: isa.LD, Rd: 2, Rs: 10, Imm: 1},  // load j
		{Op: isa.MUL, Rd: 3, Rs: 1, Rt: 1},   // i*i
		{Op: isa.SHLI, Rd: 4, Rs: 2, Imm: 1}, // j<<1
		{Op: isa.LD, Rd: 7, Rs: 10, Imm: 2},  // unrelated load
		{Op: isa.ADD, Rd: 5, Rs: 3, Rt: 4},   // sumArr
		{Op: isa.ADDI, Rd: 8, Rs: 7, Imm: 1}, // unrelated arithmetic
		{Op: isa.ST, Rs: 11, Rt: 5, Imm: 0},  // store sumArr
	}
	fmt.Println("Fig. 3(b): backward slice of the sumArr store over the unrolled window")
	fmt.Println("  [S] slice member (arithmetic/logic)  [I] input load (cut, buffered)  [ST] the store")
	fmt.Println()
	s, err := slice.Backward(code, 7)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicedump:", err)
		return 1
	}
	fmt.Print(s.Render(code))
	fmt.Println()
	fmt.Printf("Fig. 3(d): the ACR Slice has %d instructions and %d buffered inputs;\n", s.Len(), s.NumInputs())
	fmt.Println("loads are not part of the Slice — their values are captured in the")
	fmt.Println("input-operand buffer when ASSOC-ADDR retires (paper §III-A). The store")
	fmt.Println("itself is re-executed during recovery to re-establish a consistent line.")
	if verify {
		if err := analysis.VerifyStatic(code, s); err != nil {
			fmt.Fprintln(os.Stderr, "slicedump: UNSOUND:", err)
			return 1
		}
		fmt.Println("\nverified: the slice is replay-safe (purity, dominance, closure,")
		fmt.Println("address determinism and no-clobber all hold).")
	}

	// Show the runtime view too: what the tracker derives and the
	// recovery handler would evaluate.
	tr := slice.NewTracker(1)
	regs := make([]int64, isa.NumRegs)
	mem := map[int64]int64{0: 6, 1: 5, 2: 99}
	for _, in := range code {
		switch {
		case in.Op == isa.LD:
			v := mem[in.Imm]
			regs[in.Rd] = v
			tr.OnLoad(0, in.Rd, v)
		case in.Op.IsALU():
			regs[in.Rd] = isa.EvalALU(in.Op, regs[in.Rs], regs[in.Rt], regs[in.Rd], in.Imm)
			tr.OnALU(0, in)
		}
	}
	c, ok := tr.Compile(0, tr.Recipe(0, 5), 10)
	if !ok {
		fmt.Fprintln(os.Stderr, "slicedump: slice did not compile")
		return 1
	}
	fmt.Printf("\nruntime Slice for sumArr (i=6, j=5), as evaluated during recovery:\n%s", c)
	fmt.Printf("recomputed value: %d (expected %d)\n", c.Eval(nil), 6*6+(5<<1))
	return 0
}
