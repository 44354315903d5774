// The telemetry determinism regression lives in an external test package:
// telemetry imports sim, so an in-package test importing telemetry would
// cycle. It pins the PR's acceptance invariant — identical configs stay
// bit-identical with telemetry attached or not.
package sim_test

import (
	"io"
	"reflect"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

func telemetryTestRun(t *testing.T, obs ...sim.Observer) (sim.Result, []int64) {
	t.Helper()
	const threads = 4
	bench, err := workloads.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *sim.Machine {
		p, err := bench.Build(threads, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(threads)
		m, err := sim.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	p, err := bench.Build(threads, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(threads)
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.ACR = acr.Config{Threshold: bench.Threshold, MapCapacity: 4096 * threads}
	cfg.PeriodCycles = base.Cycles / 4
	cfg.Errors = fault.Uniform(1, base.Cycles, cfg.PeriodCycles/2)
	cfg.Observers = obs
	m, err := sim.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	memv := make([]int64, p.DataWords)
	for i := range memv {
		memv[i] = m.Mem().ReadWord(int64(i))
	}
	return res, memv
}

// TestTelemetryPreservesDeterminism: a faulted amnesic run with a full
// telemetry stack attached (metrics Collector + streaming Chrome tracer)
// produces a Result struct and final memory image bit-identical to the same
// run with no observers. This is the enforcement of the tentpole's
// determinism invariant: observation is strictly one-way.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	plainRes, plainMem := telemetryTestRun(t)

	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	tracer := telemetry.NewTracer(io.Discard, 4)
	obsRes, obsMem := telemetryTestRun(t, col, tracer)
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer: %v", err)
	}

	if !reflect.DeepEqual(plainRes, obsRes) {
		t.Errorf("telemetry perturbed the Result:\nplain %+v\nobserved %+v", plainRes, obsRes)
	}
	if !reflect.DeepEqual(plainMem, obsMem) {
		t.Error("telemetry perturbed final memory")
	}

	// The observers must actually have seen the run.
	if tracer.Events() == 0 {
		t.Error("tracer recorded nothing")
	}
	col.ObserveResult(obsRes)
	ckpts := 0.0
	for _, f := range reg.Families() {
		if f.Name == "acr_sim_checkpoints_total" {
			ckpts = f.With().Value()
		}
	}
	if ckpts == 0 {
		t.Error("collector recorded no checkpoints")
	}
	if got := float64(obsRes.Ckpt.Recoveries); got != 1 {
		t.Errorf("recoveries = %v, want 1 (config not exercising the faulted path)", got)
	}
}
