package sim

import (
	"fmt"
	"runtime"
	"testing"

	"acr/internal/prog"
)

// benchRun is the measured body shared by the benchmark and the JSON
// emitter: b.N full simulations, reporting sim-MIPS and allocations.
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

// benchWorkersDim is the workers dimension of the benchmark matrix: serial
// execution plus the parallel engine at GOMAXPROCS. On a single-CPU host
// GOMAXPROCS degenerates to 1, so 4 stands in — there the parallel rows
// measure the engine's coordination overhead, not speedup.
func benchWorkersDim() []int {
	if gmp := runtime.GOMAXPROCS(0); gmp > 1 {
		return []int{1, gmp}
	}
	return []int{1, 4}
}

// BenchmarkMachineRun measures the simulator's hot loop — the quantum-
// batched scheduler plus core stepping — at the paper's three machine
// scales plus the sharded plane's 128/256-core rows, with and without
// (amnesic) checkpointing, serial and through the parallel engine. The
// reported metric is wall-clock per simulated run; sim-MIPS puts it in
// simulator terms.
func BenchmarkMachineRun(b *testing.B) {
	for _, cores := range []int{8, 16, 32, 128, 256} {
		for _, ckpt := range []bool{false, true} {
			for _, w := range benchWorkersDim() {
				name := fmt.Sprintf("cores=%d/ckpt=%v/workers=%d", cores, ckpt, w)
				b.Run(name, func(b *testing.B) {
					cfg, p := benchSetup(b, cores, 10, ckpt)
					cfg.Workers = w
					benchRun(b, cfg, p)
				})
			}
		}
	}
}
