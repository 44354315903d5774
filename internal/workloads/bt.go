package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// BuildBT assembles the bt (block tridiagonal solver) kernel.
//
// Structure mirrored from NAS BT: per outer iteration, alternating-direction
// line sweeps update the solution and right-hand-side arrays, followed by a
// global residual reduction in which every thread reads every other thread's
// partial — making bt's communication graph complete, so coordinated-local
// checkpointing cannot beat global (paper §V-E observes exactly this for
// bt). Stored values are produced by 5x5-block factorisation arithmetic; the
// depth profile below calibrates the Slice-length distribution to Table II:
// ≤10: 36.5%, ≤20: 45%, ≤30: 85%, ≤40: 88%, ≤50: 90%.
func BuildBT(threads int, class Class) (*prog.Program, error) {
	b := prog.New("bt")
	n := int64(class.N)
	u := b.Data(threads * class.N)
	rhs := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	buckets := []depthBucket{
		{UpTo: 82, Depth: 8}, // ≈41% scalar updates (the boundary
		// refresh below pulls the realised ≤10 share back to ≈36%)
		{UpTo: 90, Depth: 16},  // 8.5% 3x3-ish block rows
		{UpTo: 170, Depth: 25}, // 40% 5x5 block rows
		{UpTo: 176, Depth: 36},
		{UpTo: 180, Depth: 46},
		{UpTo: 200, Depth: 70}, // 10% full back-substitution chains
	}

	streamSetup(b, threads)
	partitionBase(b, rBase, u, n)
	partitionBase(b, rSrc, rhs, n)
	lcgFill(b, rBase, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// x-sweep: u -> rhs; y-sweep: rhs -> u.
		chainPhase(b, rBase, rSrc, n, 200, buckets, true)
		b.Barrier()
		chainPhase(b, rSrc, rBase, n, 200, buckets, true)
		// Every eighth iteration, the boundary conditions are refreshed
		// from the random stream — a burst of unrecomputable stores.
		// This is the temporal variation in recomputation opportunity
		// that Fig. 10 shows for bt and that motivates the paper's
		// adaptive-placement future work (§V-D1).
		skip := b.NewLabel()
		b.OpI(isa.ANDI, rTmp, rIter, 3)
		b.Li(rTmp2, 3)
		b.Bne(rTmp, rTmp2, skip)
		lcgFill(b, rBase, n/2)
		b.Place(skip)
		// Residual reduction: complete communication graph.
		allToAllReduce(b, shared)
	})
	b.Halt()
	return b.Build()
}
