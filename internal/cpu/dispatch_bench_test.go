package cpu

import (
	"testing"

	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
)

// dispatchKernel is a single-core kernel with the simulator's common op
// mix — short ALU runs, a load/store pair, and a backward branch — sized
// so one full execution dominates any setup cost.
func dispatchKernel(iters int) *prog.Program {
	b := prog.New("dispatch")
	base := b.Data(64)
	b.Li(1, base)
	b.Li(4, 64)
	b.LoopConst(20, 21, int64(iters), func() {
		b.Loop(2, 4, func() {
			b.Op3(isa.ADD, 5, 1, 2)
			b.Ld(3, 5, 0)
			b.OpI(isa.SHRI, 3, 3, 1)
			b.OpI(isa.ADDI, 3, 3, 3)
			b.Op3(isa.XOR, 6, 3, 2)
			b.St(6, 5, 0)
		})
	})
	b.Halt()
	return b.MustBuild()
}

func dispatchSetup(tb testing.TB, p *prog.Program) (*Core, *mem.System) {
	tb.Helper()
	meter := energy.NewMeter(nil)
	sys := mem.MustNewSystem(mem.DefaultConfig(), 1, p.DataWords, meter)
	c := New(0, p.Entry, 1)
	return c, sys
}

// BenchmarkStepDispatch measures the per-instruction dispatch cost of the
// interpreter (Step per op). The sub-benchmark keeps its historical name
// so BENCH rows recorded before it stay joinable; ns/instr is the
// comparable number.
func BenchmarkStepDispatch(b *testing.B) {
	p := dispatchKernel(50)
	b.Run("interp", func(b *testing.B) {
		var instrs int64
		for i := 0; i < b.N; i++ {
			c, sys := dispatchSetup(b, p)
			for c.State == Running {
				c.Step(p, sys, nil, nil)
			}
			instrs = c.Instrs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs*int64(b.N)), "ns/instr")
	})
}
