package workloads

import (
	"acr/internal/prog"
)

// BuildMG assembles the mg (multigrid) kernel.
//
// Structure mirrored from NAS MG: V-cycle iterations smooth the grid and
// apply residual corrections. A smoothed point's value gathers a full
// stencil neighbourhood, so the bulk of stored values carry ≈26-instruction
// Slices — below threshold 30 but above 10 and 20, which is exactly the
// Table II staircase for mg (≤10: 11.6%, ≤20: 19.7%, ≤30: 88%, ≤40: 90.3%).
// The short population comes from boundary and restriction stores. At any
// given V-cycle level only a block-stable subset of threads exchange, so
// the per-interval communication graph is pairs and coordinated-local
// checkpointing helps (§V-E, ≈32%).
func BuildMG(threads int, class Class) (*prog.Program, error) {
	b := prog.New("mg")
	n := int64(class.N)
	u := b.Data(threads * class.N)
	r := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	buckets := []depthBucket{
		{UpTo: 116, Depth: 7},   // boundary / restriction stores
		{UpTo: 197, Depth: 15},  // coarse-level partial stencils
		{UpTo: 880, Depth: 26},  // full stencil gathers
		{UpTo: 903, Depth: 36},  // fused smooth+correct points
		{UpTo: 1000, Depth: 55}, // multi-level fused chains
	}

	streamSetup(b, threads)
	partitionBase(b, rBase, u, n)
	partitionBase(b, rSrc, r, n)
	lcgFill(b, rBase, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// Smooth u -> r, correct r -> u.
		chainPhase(b, rBase, rSrc, n, 1000, buckets, true)
		b.Barrier()
		chainPhase(b, rSrc, rBase, n, 1000, buckets, true)
		// Level-stable halo exchange: pairs per interval.
		pairExchange(b, shared, 8)
		imbalance(b, 32)
	})
	b.Halt()
	return b.Build()
}
