// Faulttolerance: run the is benchmark under increasingly hostile error
// rates (paper §V-D2) and verify that every recovery reproduces the
// error-free memory image exactly, while measuring how ACR's recomputation
// keeps the recovery overhead below the baseline's.
package main

import (
	"fmt"
	"log"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/workloads"
)

func main() {
	const threads = 4
	bench, err := workloads.ByName("is")
	must(err)
	class := workloads.ClassS

	// Error-free reference.
	refProg, err := bench.Build(threads, class)
	must(err)
	ref, err := sim.New(sim.DefaultConfig(threads), refProg)
	must(err)
	refRes, err := ref.Run()
	must(err)
	period := refRes.Cycles / 11

	fmt.Printf("is, %d threads, class %s: error-free %d cycles\n\n", threads, class.Name, refRes.Cycles)
	fmt.Println("errors  Ckpt_E cycles  ReCkpt_E cycles  recomputed  verified")
	for errs := 1; errs <= 5; errs++ {
		full := runOnce(bench, class, threads, period, refRes.Cycles, errs, false)
		re := runOnce(bench, class, threads, period, refRes.Cycles, errs, true)
		verify(ref, re.mem, re.words)
		verify(ref, full.mem, full.words)
		fmt.Printf("%6d  %13d  %15d  %10d  %8s\n",
			errs, full.cycles, re.cycles, re.recomputed, "yes")
	}
	fmt.Println("\nevery run recovered to the exact error-free memory image;")
	fmt.Println("ReCkpt pays recomputation during recovery but wins it back on checkpointing.")
}

type outcome struct {
	cycles     int64
	recomputed int64
	mem        *sim.Machine
	words      int
}

func runOnce(bench workloads.Bench, class workloads.Class, threads int, period, horizon int64, errs int, amnesic bool) outcome {
	p, err := bench.Build(threads, class)
	must(err)
	cfg := sim.DefaultConfig(threads)
	cfg.Checkpointing = true
	cfg.PeriodCycles = period
	if amnesic {
		cfg.Strategy = ckpt.KindAmnesic
		cfg.ACR = acr.Config{Threshold: bench.Threshold, MapCapacity: 4096 * threads}
	}
	cfg.Errors = fault.Uniform(errs, horizon, period/2)
	m, err := sim.New(cfg, p)
	must(err)
	res, err := m.Run()
	must(err)
	if res.Ckpt.Recoveries != int64(errs) {
		log.Fatalf("expected %d recoveries, got %d", errs, res.Ckpt.Recoveries)
	}
	return outcome{cycles: res.Cycles, recomputed: res.Ckpt.RecomputedWords, mem: m, words: p.DataWords}
}

func verify(ref *sim.Machine, got *sim.Machine, words int) {
	for a := int64(0); a < int64(words); a++ {
		if got.Mem().ReadWord(a) != ref.Mem().ReadWord(a) {
			log.Fatalf("memory differs at %d — recovery corrupted state", a)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
