package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"acr/internal/ckpt"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/prog"
)

// runWorkers runs p under cfg with the given worker count and returns the
// result, the final data-memory image and the engine counters.
func runWorkers(t *testing.T, cfg Config, p *prog.Program, workers int) (Result, []int64, SchedStats) {
	t.Helper()
	cfg.Workers = workers
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, memWords(m, p.DataWords), m.SchedStats()
}

// checkBitIdentical asserts a parallel run reproduced the serial oracle
// exactly: the full Result (cycles, instructions, energy totals and
// per-event counts, checkpoint/AddrMap/memory statistics, timeline) and
// every data-memory word.
func checkBitIdentical(t *testing.T, label string, serial, par Result, serialMem, parMem []int64) {
	t.Helper()
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("%s: results differ\nserial: %+v\nparallel: %+v", label, serial, par)
	}
	for i := range serialMem {
		if parMem[i] != serialMem[i] {
			t.Fatalf("%s: memory differs at word %d: serial %d, parallel %d",
				label, i, serialMem[i], parMem[i])
		}
	}
}

// TestParallelBitIdentityFuzz sweeps randomized workload shapes and
// configurations across worker counts and checks every parallel run is
// bit-identical to the serial oracle. Unaligned partitions (perThread not a
// multiple of the 8-word line) make neighbouring cores share boundary
// lines, so the sweep exercises both committed rounds and the
// conflict-abort/serial-replay path. The amnesic arms pin the engine's one
// exclusion: they must run serial quanta only, with no speculative round.
// Mode and partition size are stratified, not drawn, so every arm meets the
// unaligned partition whatever the seed: only the non-amnesic arms can
// exercise the engine.
func TestParallelBitIdentityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scenarios := 12
	coreChoices := []int{8, 16, 32}
	if testing.Short() {
		scenarios = 4
		coreChoices = []int{8, 16}
	}

	var committed, aborted int64
	for i := 0; i < scenarios; i++ {
		cores := coreChoices[rng.Intn(len(coreChoices))]
		perThread := []int{10, 24, 40}[(i/4)%3]
		iters := 3 + rng.Intn(3)
		workers := []int{2, 4, 8}[rng.Intn(3)]
		p := testKernel(cores, perThread, iters)

		cfg := DefaultConfig(cores)
		mode := i % 4 // 0: no ckpt, 1: ckpt, 2: amnesic, 3: amnesic local
		if mode > 0 {
			ref, refMem, _ := runWorkers(t, cfg, p, 1)
			_ = refMem
			cfg.Checkpointing = true
			if mode >= 2 {
				cfg.Strategy = ckpt.KindAmnesic
			}
			if mode == 3 {
				cfg.Mode = ckpt.Local
			}
			cfg.PeriodCycles = ref.Cycles / 4
			if rng.Intn(2) == 1 {
				cfg.Errors = fault.Uniform(1+rng.Intn(2), ref.Cycles, cfg.PeriodCycles/2)
			}
			if rng.Intn(3) == 0 {
				cfg.AdaptivePlacement = true
			}
		}
		if rng.Intn(2) == 1 {
			cfg.RecordTimeline = true
		}

		label := "scenario " + string(rune('A'+i))
		serial, serialMem, _ := runWorkers(t, cfg, p, 1)
		par, parMem, ps := runWorkers(t, cfg, p, workers)
		checkBitIdentical(t, label, serial, par, serialMem, parMem)
		switch {
		case cfg.Strategy.Amnesic() && ps.Rounds != 0:
			t.Errorf("%s: amnesic run attempted %d speculative rounds, want serial quanta only", label, ps.Rounds)
		case !cfg.Strategy.Amnesic() && ps.Rounds == 0:
			t.Errorf("%s: parallel run attempted no speculative rounds", label)
		}
		committed += ps.Committed
		aborted += ps.Aborted
	}
	if committed == 0 {
		t.Error("no scenario committed a speculative round; the engine never ran parallel")
	}
	if aborted == 0 {
		t.Error("no scenario aborted a round; the conflict path went unexercised")
	}
}

// sharedLineKernel makes every core increment the same memory word in a
// tight loop: all quanta touch one line, so every multi-core speculative
// round must conflict and fall back to serial replay.
func sharedLineKernel(iters int) *prog.Program {
	b := prog.New("sharedline")
	w := b.Data(8)
	const (
		rVal  isa.Reg = 1
		rIter isa.Reg = 2
		rEnd  isa.Reg = 3
		rAddr isa.Reg = 4
	)
	b.Li(rAddr, w)
	b.LoopConst(rIter, rEnd, int64(iters), func() {
		b.Ld(rVal, rAddr, 0)
		b.OpI(isa.ADDI, rVal, rVal, 1)
		b.St(rVal, rAddr, 0)
	})
	b.Halt()
	return b.MustBuild()
}

// TestParallelForcedConflict pins the serial-replay fallback: a
// true-sharing workload where every round conflicts. Every speculative
// round must be discarded and replayed, and the result must still be
// bit-identical to the serial oracle.
func TestParallelForcedConflict(t *testing.T) {
	p := sharedLineKernel(300)
	cfg := DefaultConfig(4)
	serial, serialMem, _ := runWorkers(t, cfg, p, 1)
	par, parMem, ps := runWorkers(t, cfg, p, 4)
	checkBitIdentical(t, "forced conflict", serial, par, serialMem, parMem)
	if ps.Rounds == 0 {
		t.Fatal("no speculative rounds attempted")
	}
	if ps.Committed != 0 {
		t.Errorf("true-sharing rounds committed: %+v", ps)
	}
	if ps.Aborted != ps.Rounds {
		t.Errorf("aborted %d of %d rounds, want all", ps.Aborted, ps.Rounds)
	}
	if ps.ReplayInstrs == 0 {
		t.Errorf("serial replay executed nothing: %+v", ps)
	}
}

// TestParallelDisjointCommits is the complement: fully disjoint,
// barrier-free per-core work must commit its rounds rather than abort.
func TestParallelDisjointCommits(t *testing.T) {
	// Aligned partitions and no cross-thread reads: phase-2 reads stay in
	// the own partition when threads == 1 neighbour offset... use a
	// private-accumulation kernel instead.
	b := prog.New("disjoint")
	arr := b.Data(4 * 8)
	const (
		rBase isa.Reg = 1
		rIdx  isa.Reg = 2
		rEnd  isa.Reg = 3
		rVal  isa.Reg = 4
		rIter isa.Reg = 5
		rItE  isa.Reg = 6
		rAddr isa.Reg = 7
	)
	b.OpI(isa.MULI, rBase, prog.RegTID, 8)
	b.OpI(isa.ADDI, rBase, rBase, arr)
	b.Li(rEnd, 8)
	b.LoopConst(rIter, rItE, 200, func() {
		b.Loop(rIdx, rEnd, func() {
			b.Op3(isa.ADD, rAddr, rBase, rIdx)
			b.Ld(rVal, rAddr, 0)
			b.OpI(isa.ADDI, rVal, rVal, 1)
			b.St(rVal, rAddr, 0)
		})
	})
	b.Halt()
	p := b.MustBuild()

	cfg := DefaultConfig(4)
	serial, serialMem, _ := runWorkers(t, cfg, p, 1)
	par, parMem, ps := runWorkers(t, cfg, p, 4)
	checkBitIdentical(t, "disjoint", serial, par, serialMem, parMem)
	if ps.Committed == 0 {
		t.Errorf("disjoint rounds never committed: %+v", ps)
	}
	if ps.Aborted != 0 {
		t.Errorf("disjoint rounds aborted: %+v", ps)
	}
}

// TestParallelWorkerCountInvariance checks the worker count itself (not
// just parallel-vs-serial) never changes the result, on a conventional
// checkpointed run with one error: a strategy the engine speculates.
func TestParallelWorkerCountInvariance(t *testing.T) {
	p := testKernel(8, 10, 4)
	base, _, _ := runWorkers(t, DefaultConfig(8), p, 1)
	cfg := DefaultConfig(8)
	cfg.Checkpointing = true
	cfg.PeriodCycles = base.Cycles / 4
	cfg.Errors = fault.Uniform(1, base.Cycles, cfg.PeriodCycles/2)
	ref, refMem, _ := runWorkers(t, cfg, p, 1)
	for _, w := range []int{2, 3, 4, 8} {
		res, mem, ps := runWorkers(t, cfg, p, w)
		checkBitIdentical(t, "workers="+itoa(w), ref, res, refMem, mem)
		if ps.Committed == 0 {
			t.Errorf("workers=%d: no speculative round committed: %+v", w, ps)
		}
	}
}
