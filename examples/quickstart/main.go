// Quickstart: build a small program with the assembler API, run it on the
// simulated machine under ACR (amnesic checkpointing), inject an error, and
// watch recovery recompute the omitted values.
package main

import (
	"fmt"
	"log"

	"acr/internal/analysis"
	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/prog"
	"acr/internal/sim"
)

func main() {
	// A toy kernel: repeatedly recompute out[i] = in[i]*3 + 1 over many
	// sweeps. The stored values derive from a load plus two arithmetic
	// instructions, so each has a 2-instruction Slice — a perfect
	// candidate for amnesic omission.
	const n = 64
	b := prog.New("quickstart")
	in := b.Data(n)
	out := b.Data(n)
	b.Li(10, in)
	b.Li(11, out)
	b.LoopConst(20, 21, 200, func() { // 200 sweeps
		b.LoopConst(1, 2, n, func() {
			b.Op3(isa.ADD, 4, 10, 1) // &in[i]
			b.Ld(3, 4, 0)
			b.OpI(isa.MULI, 3, 3, 3)
			b.OpI(isa.ADDI, 3, 3, 1)
			b.Op3(isa.ADD, 4, 11, 1) // &out[i]
			b.StAssoc(3, 4, 0)       // store + ASSOC-ADDR
			// Feed back so values evolve across sweeps.
			b.Op3(isa.ADD, 4, 10, 1)
			b.St(3, 4, 0)
		})
	})
	b.Halt()
	program, err := b.Build()
	must(err)

	// Gate the kernel through the static analyser before running it: the
	// same lint the shipped workloads must pass (TestAllWorkloadsLintClean).
	diags, err := analysis.Lint(program)
	must(err)
	for _, d := range diags {
		log.Fatalf("quickstart kernel fails lint: %s", d)
	}

	program.Init = func(mem []int64) {
		for i := 0; i < n; i++ {
			mem[i] = int64(i)
		}
	}

	// Error-free reference run.
	ref, err := sim.New(sim.DefaultConfig(1), program)
	must(err)
	refRes, err := ref.Run()
	must(err)
	fmt.Printf("reference run: %d instructions, %d cycles\n", refRes.Instrs, refRes.Cycles)

	// ACR run: checkpoint every ~1/10 of the run, one injected error.
	cfg := sim.DefaultConfig(1)
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096}
	cfg.PeriodCycles = refRes.Cycles / 10
	cfg.Errors = fault.Uniform(1, refRes.Cycles, cfg.PeriodCycles/2)

	m, err := sim.New(cfg, program)
	must(err)
	res, err := m.Run()
	must(err)

	fmt.Printf("ACR run:       %d cycles (%.1f%% overhead incl. one recovery)\n",
		res.Cycles, 100*float64(res.Cycles-refRes.Cycles)/float64(refRes.Cycles))
	fmt.Printf("checkpoints %d, recoveries %d\n", res.Ckpt.Checkpoints, res.Ckpt.Recoveries)
	total := res.Ckpt.LoggedWords + res.Ckpt.OmittedWords
	fmt.Printf("checkpointable volume: %d words, %d omitted (%.1f%%)\n",
		total, res.Ckpt.OmittedWords, 100*float64(res.Ckpt.OmittedWords)/float64(total))
	fmt.Printf("recovery recomputed %d values along their Slices\n", res.Ckpt.RecomputedWords)

	// Verify: recovery produced exactly the error-free memory image.
	for a := int64(0); a < int64(program.DataWords); a++ {
		if m.Mem().ReadWord(a) != ref.Mem().ReadWord(a) {
			log.Fatalf("memory differs at %d — recovery is broken", a)
		}
	}
	fmt.Println("verified: post-recovery memory is bit-identical to the error-free run")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
