package workloads

import (
	"acr/internal/isa"
	"acr/internal/prog"
)

// Register conventions shared by the kernels. r31/r30 are the loader-preset
// thread id / thread count (prog.RegTID / prog.RegNTHR).
const (
	rIdx   isa.Reg = 1  // inner loop index
	rEnd   isa.Reg = 2  // inner loop bound
	rVal   isa.Reg = 3  // value being computed/stored
	rAddr  isa.Reg = 4  // effective address scratch
	rTmp   isa.Reg = 5  // scratch
	rTmp2  isa.Reg = 6  // scratch
	rBase  isa.Reg = 7  // own partition base
	rSrc   isa.Reg = 8  // source partition base
	rAcc   isa.Reg = 9  // accumulator
	rIter  isa.Reg = 20 // outer iteration index
	rItEnd isa.Reg = 21 // outer iteration bound
	rC1    isa.Reg = 22 // loop-invariant constant
	rC2    isa.Reg = 23 // loop-invariant constant
	rPart  isa.Reg = 24 // partner/neighbour base
	rSeed  isa.Reg = 25 // PRNG state
	rStr   isa.Reg = 26 // streaming window offset for the iteration
	rStrB  isa.Reg = 27 // streaming array partition base
)

// streamWords is the per-thread size of the streaming input array, in
// words. It exceeds the L2 capacity and is touched with a per-iteration
// rotating window, so streamed loads are compulsory misses — modelling the
// memory-bound character of the NAS codes, whose inputs do not fit on chip.
// Must be a power of two (the window offset wraps with a mask).
const streamWords = 1 << 17

// lineWords must match the memory system's line size: communication slots
// and partition bases are line-aligned so that sharing observed by the
// directory reflects true communication, not false sharing.
const lineWords = 8

// depthBucket maps element indices (by idx mod the pattern modulus) to the
// arithmetic depth of the stored value's Slice. Buckets are cumulative:
// an index i falls in the first bucket with i mod modulus < UpTo.
type depthBucket struct {
	UpTo  int64
	Depth int
}

// chainOps emits depth dependent integer ALU ops transforming rVal. Each op
// uses an immediate form, so the Slice grows by exactly one instruction per
// op. The op mix (multiply, add, xor, shift) mirrors the address/value
// manipulation typical of compiled scientific kernels.
func chainOps(b *prog.Builder, depth int) {
	for k := 0; k < depth; k++ {
		switch k % 4 {
		case 0:
			b.OpI(isa.MULI, rVal, rVal, 3)
		case 1:
			b.OpI(isa.ADDI, rVal, rVal, 7)
		case 2:
			b.OpI(isa.XORI, rVal, rVal, 0x2545)
		default:
			b.OpI(isa.SHRI, rVal, rVal, 1)
		}
	}
}

// chainPhase emits one compute phase: for each element i of the thread's
// partition, load src[i], apply a depth-bucketed arithmetic chain, and store
// the result to dst[i] with ASSOC-ADDR. The depth pattern is what calibrates
// the benchmark's Slice-length distribution (Table II): an element whose
// bucket depth is d yields a Slice of exactly d instructions rooted at the
// buffered load.
//
// srcBase and dstBase are registers holding partition base addresses; n is
// the element count; modulus/buckets define the depth pattern.
//
// When stream is true, every fourth element additionally reads one word of
// the thread's streaming array (base rStrB, set up by streamSetup) through a
// per-iteration rotating window of never-reused lines — the compulsory-miss
// traffic of the input grids the NAS codes sweep. The streamed value joins
// the stored value with one extra ADD, so the element's Slice gains one
// instruction and one buffered input.
func chainPhase(b *prog.Builder, srcBase, dstBase isa.Reg, n int64, modulus int64, buckets []depthBucket, stream bool) {
	if stream {
		// Window offset for this iteration: iter*n*8 within the array.
		b.OpI(isa.MULI, rStr, rIter, n*8)
		b.OpI(isa.ANDI, rStr, rStr, streamWords-1)
	}
	b.Li(rEnd, n)
	b.Loop(rIdx, rEnd, func() {
		b.Op3(isa.ADD, rAddr, srcBase, rIdx)
		b.Ld(rVal, rAddr, 0)
		var skipStream prog.Label
		if stream {
			skipStream = b.NewLabel()
			b.OpI(isa.ANDI, rTmp, rIdx, 3)
			b.Bne(rTmp, 0, skipStream)
			// addr = streamBase + ((window + idx*8) & mask): a fresh
			// line per streamed element.
			b.OpI(isa.MULI, rTmp, rIdx, 8)
			b.Op3(isa.ADD, rTmp, rTmp, rStr)
			b.OpI(isa.ANDI, rTmp, rTmp, streamWords-1)
			b.Op3(isa.ADD, rTmp, rTmp, rStrB)
			b.Ld(rTmp2, rTmp, 0)
			b.Op3(isa.ADD, rVal, rVal, rTmp2)
			b.Place(skipStream)
		}

		store := b.NewLabel()
		// Hash the index before bucketing so the depth mix covers the
		// whole pattern regardless of the partition size.
		b.OpI(isa.MULI, rTmp, rIdx, 7919)
		b.OpI(isa.ADDI, rTmp, rTmp, 3)
		b.Li(rTmp2, modulus)
		b.Op3(isa.REM, rTmp, rTmp, rTmp2)
		next := b.NewLabel()
		for bi, bucket := range buckets {
			if bi > 0 {
				b.Place(next)
				next = b.NewLabel()
			}
			if bi < len(buckets)-1 {
				b.Li(rTmp2, bucket.UpTo)
				b.Bge(rTmp, rTmp2, next)
			}
			chainOps(b, bucket.Depth)
			if bi < len(buckets)-1 {
				b.Jmp(store)
			}
		}
		b.Place(store)
		b.Op3(isa.ADD, rAddr, dstBase, rIdx)
		b.StAssoc(rVal, rAddr, 0)
	})
}

// streamSetup reserves the thread's streaming input array and points rStrB
// at its partition. The array is zero-initialised (its values only perturb
// the computation; its cold lines are what matters).
func streamSetup(b *prog.Builder, threads int) {
	base := b.Data(threads * streamWords)
	partitionBase(b, rStrB, base, streamWords)
}

// lcgFill emits an initialisation phase: fill dst[0..n) with pseudo-random
// values produced by a register-resident linear congruential recurrence.
// The recurrence is loop-carried, so the stored values' backward slices grow
// without bound and almost none are recomputable — modelling the NAS random
// initialisation (is key generation, ft input generation) that makes the
// initial checkpoint interval amnesia-resistant (Fig. 9 Max).
func lcgFill(b *prog.Builder, dstBase isa.Reg, n int64) {
	// Seed depends on the thread id so partitions differ.
	b.OpI(isa.MULI, rSeed, prog.RegTID, 2654435761)
	b.OpI(isa.ADDI, rSeed, rSeed, 12345)
	b.Li(rEnd, n)
	b.Loop(rIdx, rEnd, func() {
		b.OpI(isa.MULI, rSeed, rSeed, 1103515245)
		b.OpI(isa.ADDI, rSeed, rSeed, 12345)
		b.OpI(isa.SHRI, rVal, rSeed, 16)
		b.Op3(isa.ADD, rAddr, dstBase, rIdx)
		b.StAssoc(rVal, rAddr, 0)
	})
}

// partitionBase emits rBase = arrBase + tid*stride.
func partitionBase(b *prog.Builder, dst isa.Reg, arrBase int64, stride int64) {
	b.OpI(isa.MULI, dst, prog.RegTID, stride)
	b.OpI(isa.ADDI, dst, dst, arrBase)
}

// exchangeRegion reserves the shared array of line-aligned slots that
// allToAllReduce, pairExchange and neighbourExchange index by thread id:
// one line per thread, and never fewer than 64 lines, so programs at ≤64
// threads keep their historical data layout.
func exchangeRegion(b *prog.Builder, threads int) int64 {
	return b.Data(max(64, threads) * lineWords)
}

// allToAllReduce emits the coordination pattern of bt/cg/sp: every thread
// publishes a partial value to its line-aligned slot of a shared array,
// barriers, then reads every other thread's slot and accumulates. The
// directory observes a complete communication graph, so coordinated-local
// checkpointing degenerates to global for these benchmarks (paper §V-E).
// The partial published is rVal; the reduced sum is left in rAcc.
func allToAllReduce(b *prog.Builder, sharedBase int64) {
	b.OpI(isa.MULI, rAddr, prog.RegTID, lineWords)
	b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
	b.StAssoc(rVal, rAddr, 0)
	b.Barrier()
	b.Li(rAcc, 0)
	b.Loop(rTmp, prog.RegNTHR, func() {
		b.OpI(isa.MULI, rAddr, rTmp, lineWords)
		b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
		b.Ld(rTmp2, rAddr, 0)
		b.Op3(isa.ADD, rAcc, rAcc, rTmp2)
	})
	b.Barrier()
}

// pairExchange emits the coordination pattern of ft/is/mg/dc: each thread
// exchanges a value with a partner chosen by XOR-ing the thread id with a
// small mask. The mask alternates between 1 and 2 every blockIters outer
// iterations, so within any one checkpoint interval the pairing is stable
// and the communication graph decomposes into 2-core components —
// coordinated-local checkpointing then coordinates pairs instead of the
// whole machine (paper §V-E). The exchanged value is rVal; the partner's
// value lands in rTmp2.
func pairExchange(b *prog.Builder, sharedBase int64, blockIters int64) {
	b.OpI(isa.MULI, rAddr, prog.RegTID, lineWords)
	b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
	b.StAssoc(rVal, rAddr, 0)
	b.Barrier()
	// mask = 1 + ((iter / blockIters) & 1); partner = tid ^ mask,
	// clamped into range by modulo (safe for any thread count).
	b.Li(rTmp, blockIters)
	b.Op3(isa.DIV, rTmp, rIter, rTmp)
	b.OpI(isa.ANDI, rTmp, rTmp, 1)
	b.OpI(isa.ADDI, rTmp, rTmp, 1)
	b.Op3(isa.XOR, rTmp, prog.RegTID, rTmp)
	b.Op3(isa.REM, rTmp, rTmp, prog.RegNTHR)
	b.OpI(isa.MULI, rAddr, rTmp, lineWords)
	b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
	b.Ld(rTmp2, rAddr, 0)
	b.Barrier()
}

// neighbourExchange emits lu's wavefront coupling: each thread publishes a
// boundary value and reads its left neighbour's, forming a chain that links
// every core into one communication component — so coordinated-local
// checkpointing buys lu little (paper §V-E reports ≈10%).
func neighbourExchange(b *prog.Builder, sharedBase int64) {
	b.OpI(isa.MULI, rAddr, prog.RegTID, lineWords)
	b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
	b.StAssoc(rVal, rAddr, 0)
	b.Barrier()
	b.OpI(isa.ADDI, rTmp, prog.RegTID, 1)
	b.Op3(isa.REM, rTmp, rTmp, prog.RegNTHR)
	b.OpI(isa.MULI, rAddr, rTmp, lineWords)
	b.OpI(isa.ADDI, rAddr, rAddr, sharedBase)
	b.Ld(rTmp2, rAddr, 0)
	b.Barrier()
}

// imbalance emits tid-proportional extra work (a pure-ALU delay loop),
// modelling the load imbalance that makes global coordination expensive for
// ft/is/mg/dc: the global barrier waits for the slowest core, while local
// groups only wait for their own members.
func imbalance(b *prog.Builder, unit int64) {
	b.OpI(isa.MULI, rTmp, prog.RegTID, unit)
	b.Li(rTmp2, 0)
	head := b.NewLabel()
	done := b.NewLabel()
	b.Place(head)
	b.Bge(rTmp2, rTmp, done)
	b.OpI(isa.ADDI, rTmp2, rTmp2, 1)
	b.Jmp(head)
	b.Place(done)
}

// outerLoop wraps body in the benchmark's outer iteration loop over
// class.Iters iterations, with rIter as the induction variable.
func outerLoop(b *prog.Builder, iters int, body func()) {
	b.Li(rItEnd, int64(iters))
	b.Li(rIter, 0)
	head := b.NewLabel()
	done := b.NewLabel()
	b.Place(head)
	b.Bge(rIter, rItEnd, done)
	body()
	b.OpI(isa.ADDI, rIter, rIter, 1)
	b.Jmp(head)
	b.Place(done)
}
