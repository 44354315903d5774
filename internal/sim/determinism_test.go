package sim

import (
	"reflect"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
)

// TestFaultedACRDeterminismRegression is the determinism regression pinned
// by the scheduler refactor: an 8-core amnesic configuration with injected
// errors, run twice from scratch, must produce byte-identical Result
// structs (including interval history and timeline) and byte-identical
// final memory images. Any divergence means the quantum-batched scheduler
// changed the instruction interleaving.
func TestFaultedACRDeterminismRegression(t *testing.T) {
	const cores = 8
	ref, err := New(DefaultConfig(cores), testKernel(cores, 24, 10))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	run := func() (Result, []int64) {
		cfg := DefaultConfig(cores)
		cfg.Checkpointing = true
		cfg.Strategy = ckpt.KindAmnesic
		cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096 * cores}
		cfg.PeriodCycles = refRes.Cycles / 4
		cfg.Errors = fault.Uniform(2, refRes.Cycles, cfg.PeriodCycles/2)
		cfg.RecordTimeline = true
		p := testKernel(cores, 24, 10)
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, memWords(m, p.DataWords)
	}

	r1, m1 := run()
	r2, m2 := run()
	if r1.Ckpt.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (config not exercising the faulted path)", r1.Ckpt.Recoveries)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Result structs differ across identical runs:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("final memory images differ across identical runs")
	}
}

// countingObserver exercises the pluggable-observer layer.
type countingObserver struct {
	byKind map[EventKind]int
}

func (o *countingObserver) OnEvent(e Event) {
	if o.byKind == nil {
		o.byKind = make(map[EventKind]int)
	}
	o.byKind[e.Kind]++
}

// TestObserverSeesTimelineEvents: a custom observer attached through
// Config.Observers receives exactly the events the built-in timeline
// recorder retains, and attaching it does not perturb the simulation.
func TestObserverSeesTimelineEvents(t *testing.T) {
	plain, _ := runCfg(t, errConfig(t, true, tCkpts, 1))

	obs := &countingObserver{}
	cfg := errConfig(t, true, tCkpts, 1)
	cfg.RecordTimeline = true
	cfg.Observers = []Observer{obs}
	res, _ := runCfg(t, cfg)

	if res.Cycles != plain.Cycles || res.EnergyPJ != plain.EnergyPJ {
		t.Errorf("observer perturbed the run: %d/%v vs %d/%v",
			res.Cycles, res.EnergyPJ, plain.Cycles, plain.EnergyPJ)
	}
	total := 0
	for _, n := range obs.byKind {
		total += n
	}
	if total != len(res.Timeline) {
		t.Errorf("observer saw %d events, timeline has %d", total, len(res.Timeline))
	}
	if obs.byKind[EvError] != 1 || obs.byKind[EvRecovery] != 1 {
		t.Errorf("observer error/recovery counts = %d/%d, want 1/1",
			obs.byKind[EvError], obs.byKind[EvRecovery])
	}
}
