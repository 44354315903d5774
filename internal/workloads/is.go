package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// BuildIS assembles the is (integer sort) kernel.
//
// Structure mirrored from NAS IS: keys are generated once by a loop-carried
// pseudo-random recurrence (unrecomputable — together with the workspace
// fill this makes the initial interval the largest checkpoint, explaining
// is's near-zero Max reduction, Fig. 9, 2.04%); each ranking iteration then
// clears the bucket counters (a zero-op Slice), counts keys (the stored
// count is load+1: a one-instruction Slice), computes bucket ranks by a
// running prefix sum (Slice length grows with the bucket index — the
// medium-length population), and rewrites keys with a short transform.
// Nearly all steady-state stores are recomputable even at tiny thresholds,
// which is why the paper caps is's threshold at 5 (§V-D1 footnote: 97.39%
// of values recomputable at 10, 75.74% at 5). Threads exchange bucket
// boundaries pairwise and are imbalanced, so is benefits strongly from
// coordinated-local checkpointing (§V-E, ≈36%).
func BuildIS(threads int, class Class) (*prog.Program, error) {
	b := prog.New("is")
	n := int64(class.N)
	nBuckets := int64(32)
	keys := b.Data(threads * class.N)
	work := b.Data(threads * class.N)
	counts := b.Data(threads * int(nBuckets))
	ranks := b.Data(threads * int(nBuckets))
	shared := exchangeRegion(b, threads)

	const (
		rCnt isa.Reg = 10
		rRnk isa.Reg = 11
		rWrk isa.Reg = 12
	)

	streamSetup(b, threads)
	partitionBase(b, rBase, keys, n)
	partitionBase(b, rWrk, work, n)
	partitionBase(b, rCnt, counts, nBuckets)
	partitionBase(b, rRnk, ranks, nBuckets)
	// Key generation: the amnesia-resistant bulk of the first interval.
	lcgFill(b, rBase, n)
	lcgFill(b, rWrk, n)
	b.Barrier()

	outerLoop(b, class.Iters, func() {
		// Clear counters: the stored zero is trivially recomputable.
		b.Li(rEnd, nBuckets)
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rCnt, rIdx)
			b.StAssoc(0, rAddr, 0)
		})
		// Count: counts[key mod B]++ — a one-instruction Slice.
		b.Li(rEnd, n)
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rBase, rIdx)
			b.Ld(rVal, rAddr, 0)
			b.OpI(isa.ANDI, rTmp, rVal, nBuckets-1)
			b.Op3(isa.ADD, rAddr, rCnt, rTmp)
			b.Ld(rVal, rAddr, 0)
			b.OpI(isa.ADDI, rVal, rVal, 1)
			b.StAssoc(rVal, rAddr, 0)
		})
		// Prefix ranks: rank[k] = sum of counts[0..k] — the Slice grows
		// with k (the running accumulation stays in a register).
		b.Li(rAcc, 0)
		b.Li(rEnd, nBuckets)
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rCnt, rIdx)
			b.Ld(rTmp, rAddr, 0)
			b.Op3(isa.ADD, rAcc, rAcc, rTmp)
			b.Op3(isa.ADD, rAddr, rRnk, rIdx)
			b.StAssoc(rAcc, rAddr, 0)
		})
		b.Barrier()
		// Key rewrite: short transform (2–3 instruction Slices), plus a
		// sprinkle of 7-deep chains (the 6..10 population that pushes
		// recomputability from 75% at threshold 5 to 97% at 10).
		chainPhase(b, rBase, rBase, n, 10, []depthBucket{
			{UpTo: 8, Depth: 2},
			{UpTo: 10, Depth: 7},
		}, true)
		// Bucket-boundary exchange with a block-stable partner.
		pairExchange(b, shared, 8)
		imbalance(b, 40)
	})
	b.Halt()
	return b.Build()
}
