package workloads

import (
	"acr/internal/prog"
)

// BuildSP assembles the sp (scalar pentadiagonal solver) kernel.
//
// Structure mirrored from NAS SP: alternating-direction pentadiagonal line
// solves followed by a global residual reduction each iteration. Like bt
// and cg, the reduction makes sp's communication graph complete, so
// coordinated-local checkpointing cannot beat global (§V-E). The scalar
// (rather than block) factorisation yields somewhat shorter chains than bt;
// the profile calibrates Table II: ≤10: 37.4%, ≤20: 47.9%, ≤30: 71.8%,
// ≤40: 93.8%, ≤50: 96.1%.
func BuildSP(threads int, class Class) (*prog.Program, error) {
	b := prog.New("sp")
	n := int64(class.N)
	u := b.Data(threads * class.N)
	rhs := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	buckets := []depthBucket{
		{UpTo: 374, Depth: 7},
		{UpTo: 479, Depth: 15},
		{UpTo: 718, Depth: 25},
		{UpTo: 938, Depth: 35},
		{UpTo: 961, Depth: 45},
		{UpTo: 1000, Depth: 60},
	}

	streamSetup(b, threads)
	partitionBase(b, rBase, u, n)
	partitionBase(b, rSrc, rhs, n)
	lcgFill(b, rBase, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		chainPhase(b, rBase, rSrc, n, 1000, buckets, true)
		b.Barrier()
		chainPhase(b, rSrc, rBase, n, 1000, buckets, true)
		allToAllReduce(b, shared)
	})
	b.Halt()
	return b.Build()
}
