package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// BuildDC assembles the dc (data cube) kernel.
//
// Structure mirrored from NAS DC: each iteration scans the thread's tuple
// partition, derives a group key with a few arithmetic ops, and accumulates
// the measure into the keyed aggregate (a one-instruction Slice rooted at
// two loads), then materialises a cube view with moderate-depth value
// chains. dc is store-dense with volume spread uniformly over intervals,
// which is why the paper reports its largest reduction of the *largest*
// checkpoint (58.3%, Fig. 9) and the highest energy reduction under errors
// (§V-B). Threads aggregate independently and merge pairwise every few
// iterations, so coordinated-local checkpointing sees small groups (§V-E).
func BuildDC(threads int, class Class) (*prog.Program, error) {
	b := prog.New("dc")
	n := int64(class.N)
	tuples := b.Data(threads * class.N)
	agg := b.Data(threads * class.N)
	view := b.Data(threads * class.N)
	shared := exchangeRegion(b, threads)

	const rAgg isa.Reg = 10
	const rView isa.Reg = 11

	streamSetup(b, threads)
	partitionBase(b, rBase, tuples, n)
	partitionBase(b, rAgg, agg, n)
	partitionBase(b, rView, view, n)
	lcgFill(b, rBase, n)
	b.Barrier()

	viewBuckets := []depthBucket{
		{UpTo: 30, Depth: 8},   // roll-up sums
		{UpTo: 100, Depth: 24}, // derived-measure cells
	}

	outerLoop(b, class.Iters, func() {
		// Aggregation: agg[key(t)] += t. The stored value's Slice is a
		// single add over two buffered loads.
		b.Li(rEnd, n)
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rBase, rIdx)
			b.Ld(rVal, rAddr, 0)
			// key = (t*constant >> 5) mod n — address arithmetic,
			// not part of the stored value's Slice.
			b.OpI(isa.MULI, rTmp, rVal, 2654435761)
			b.OpI(isa.SHRI, rTmp, rTmp, 5)
			b.Li(rTmp2, n)
			b.Op3(isa.REM, rTmp, rTmp, rTmp2)
			b.Op3(isa.ADD, rAddr, rAgg, rTmp)
			b.Ld(rTmp2, rAddr, 0)
			b.Op3(isa.ADD, rVal, rVal, rTmp2)
			b.StAssoc(rVal, rAddr, 0)
		})
		b.Barrier()
		// Cube view materialisation: moderate chains from the aggregates.
		chainPhase(b, rAgg, rView, n, 100, viewBuckets, true)
		// Pairwise merge of partial aggregates.
		pairExchange(b, shared, 8)
		imbalance(b, 24)
	})
	b.Halt()
	return b.Build()
}
