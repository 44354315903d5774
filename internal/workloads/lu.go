package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// BuildLU assembles the lu (SSOR solver) kernel.
//
// Structure mirrored from NAS LU: per outer iteration, lower and upper
// triangular sweeps update the flow variables; each thread depends on its
// neighbour's boundary plane, forming a wavefront pipeline whose chain
// links every core into one communication component — so coordinated-local
// checkpointing buys lu little (§V-E reports ≈10%). The SSOR block depth
// profile calibrates Table II: ≤10: 42.7%, ≤20: 46.7%, ≤30: 64.4%,
// ≤40: 74.7%, ≤50: 81.1%.
func BuildLU(threads int, class Class) (*prog.Program, error) {
	b := prog.New("lu")
	n := int64(class.N)
	u := b.Data(threads * class.N)
	rsd := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	buckets := []depthBucket{
		{UpTo: 427, Depth: 7},
		{UpTo: 467, Depth: 15},
		{UpTo: 640, Depth: 25},
		{UpTo: 747, Depth: 35},
		{UpTo: 811, Depth: 45},
		{UpTo: 1000, Depth: 60},
	}

	streamSetup(b, threads)
	partitionBase(b, rBase, u, n)
	partitionBase(b, rSrc, rsd, n)
	lcgFill(b, rBase, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// Lower sweep u -> rsd, upper sweep rsd -> u.
		chainPhase(b, rBase, rSrc, n, 1000, buckets, true)
		b.Barrier()
		chainPhase(b, rSrc, rBase, n, 1000, buckets, true)
		// Wavefront boundary exchange: chains all cores together on
		// most iterations; every eighth iteration ends a wavefront and
		// needs no exchange, which is where coordinated-local
		// checkpointing recovers its small (~10%) win for lu (§V-E).
		skip := b.NewLabel()
		b.OpI(isa.ANDI, rTmp, rIter, 7)
		b.Li(rTmp2, 7)
		b.Beq(rTmp, rTmp2, skip)
		neighbourExchange(b, shared)
		b.Place(skip)
		b.Barrier()
	})
	b.Halt()
	return b.Build()
}
