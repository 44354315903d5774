package workloads

import (
	"acr/internal/prog"
)

// BuildFT assembles the ft (3-D FFT) kernel.
//
// Structure mirrored from NAS FT: the input field is generated once by a
// loop-carried pseudo-random recurrence (unrecomputable, and the largest
// store volume of any interval — which is why ft shows the smallest Max
// checkpoint reduction in Fig. 9, 0.05%), then iterations apply butterfly
// passes between the two planes. A butterfly output's Slice is the twiddle
// recurrence feeding it, whose depth varies with the butterfly's position
// in its block; the profile below calibrates Table II (≤10: 23%, ≤20: 71%,
// ≤30: 88%, ≤40: 99.5%). Threads exchange with block-stable partners
// (transpose sub-blocks) and carry imbalanced work, so ft benefits most
// from coordinated-local checkpointing (§V-E reports ≈42%).
func BuildFT(threads int, class Class) (*prog.Program, error) {
	b := prog.New("ft")
	n := int64(class.N)
	x := b.Data(threads * class.N)
	y := b.Data(threads * class.N)
	scratch := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	buckets := []depthBucket{
		{UpTo: 46, Depth: 8},   // 23% first butterflies of a block
		{UpTo: 142, Depth: 16}, // 48%
		{UpTo: 176, Depth: 26}, // 17%
		{UpTo: 199, Depth: 36}, // 11.5%
		{UpTo: 200, Depth: 55}, // long twiddle chains
	}

	streamSetup(b, threads)
	partitionBase(b, rBase, x, n)
	partitionBase(b, rSrc, y, n)
	partitionBase(b, rPart, scratch, n)
	// Input generation: x, y and the scratch plane — triple volume, all
	// produced by the loop-carried recurrence.
	lcgFill(b, rBase, n)
	lcgFill(b, rSrc, n)
	lcgFill(b, rPart, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// Forward pass x -> y, inverse pass y -> x.
		chainPhase(b, rBase, rSrc, n, 200, buckets, true)
		b.Barrier()
		chainPhase(b, rSrc, rBase, n, 200, buckets, true)
		// Transpose exchange with a block-stable partner.
		pairExchange(b, shared, 8)
		imbalance(b, 48)
	})
	b.Halt()
	return b.Build()
}
