package sim

import (
	"flag"
	"fmt"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/prog"
)

// benchSetup builds the configuration for one (cores, ckpt) point: the
// synthetic kernel, plus, with ck set, amnesic ACR with a checkpoint period
// calibrated once so every measured run establishes ~12 checkpoints.
func benchSetup(tb testing.TB, cores, iters int, ck bool) (Config, *prog.Program) {
	tb.Helper()
	p := testKernel(cores, 48, iters)
	cfg := DefaultConfig(cores)
	if ck {
		m, err := New(cfg, p)
		if err != nil {
			tb.Fatal(err)
		}
		ref, err := m.Run()
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Checkpointing = true
		cfg.Strategy = ckpt.KindAmnesic
		cfg.PeriodCycles = ref.Cycles / 13
		cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096 * cores}
	}
	return cfg, p
}

// benchRun is the measured body shared by BenchmarkMachineRun and the
// allocation-budget test: b.N full simulations, reporting sim-MIPS and
// allocations.
func benchRun(b *testing.B, cfg Config, p *prog.Program) {
	b.ReportAllocs()
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.StopTimer()
	if instrs > 0 && b.Elapsed() > 0 {
		mips := float64(instrs) * float64(b.N) / b.Elapsed().Seconds() / 1e6
		b.ReportMetric(mips, "sim-MIPS")
	}
}

// BenchmarkMachineRun measures the simulator's hot loop — the quantum-
// batched scheduler plus core stepping — at the paper's three machine
// scales plus 128/256-core rows, with and without (amnesic) checkpointing.
// The reported metric is wall-clock per simulated run; sim-MIPS puts it in
// simulator terms.
func BenchmarkMachineRun(b *testing.B) {
	for _, cores := range []int{8, 16, 32, 128, 256} {
		for _, ck := range []bool{false, true} {
			name := fmt.Sprintf("cores=%d/ckpt=%v", cores, ck)
			b.Run(name, func(b *testing.B) {
				cfg, p := benchSetup(b, cores, 10, ck)
				benchRun(b, cfg, p)
			})
		}
	}
}

// measureCfg returns one configuration's allocations per simulated run
// (from testing.Benchmark over benchRun) and the run's instruction count.
func measureCfg(t *testing.T, cfg Config, p *prog.Program) (allocsPerOp, instrs int64) {
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) { benchRun(b, cfg, p) })
	return r.AllocsPerOp(), res.Instrs
}

// TestBenchAllocBudget is the allocation ceiling on the per-instruction
// path. A run's allocations split into a bounded warm-up (machine
// construction, pool/arena ramp-up — capped by AddrMap capacity, not by
// run length) and the steady-state path, which must be allocation-free.
// The test measures the *marginal* allocations between a short and a 6×
// longer ACR run of the same kernel: with the steady-state path clean the
// margin is near zero per instruction, while the pre-optimization code
// allocated ~570 per 1000 instructions regardless of length.
func TestBenchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	// Keep the measurement short regardless of -benchtime: 5 iterations
	// are enough for an allocation count, which is near-deterministic
	// per run.
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "5x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	// Calibrate the checkpoint period once, on the short kernel, and hold
	// it for the long kernel: the comparison must scale the number of
	// intervals, not the per-interval state (pinned-record population and
	// pool high-water marks are proportional to interval volume, which is
	// warm-up state, not per-instruction cost).
	cfg, pShort := benchSetup(t, 8, 10, true)
	shortAllocs, shortInstrs := measureCfg(t, cfg, pShort)
	longAllocs, longInstrs := measureCfg(t, cfg, testKernel(8, 48, 60))
	dInstr := longInstrs - shortInstrs
	if dInstr <= 0 {
		t.Fatalf("kernel lengths did not scale: %d vs %d instrs", shortInstrs, longInstrs)
	}
	marginal := float64(longAllocs-shortAllocs) / (float64(dInstr) / 1000)
	t.Logf("short: %d allocs / %d instrs; long: %d allocs / %d instrs; marginal %.3f allocs/kinstr",
		shortAllocs, shortInstrs, longAllocs, longInstrs, marginal)
	const ceiling = 2.0
	if marginal > ceiling {
		t.Errorf("steady-state allocation budget exceeded: %.3f allocs per 1000 instructions (ceiling %.1f)",
			marginal, ceiling)
	}
}
