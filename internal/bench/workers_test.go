package bench

import (
	"reflect"
	"testing"

	"acr/internal/workloads"
)

// TestRunnerSimWorkersBitIdentical: a runner driving machines through the
// parallel engine (SimWorkers > 1) memoises exactly the Results a serial
// runner produces, across the calibration fixed point — the property that
// justifies keeping SimWorkers out of the cache key.
func TestRunnerSimWorkersBitIdentical(t *testing.T) {
	p := Params{Threads: 8, Class: workloads.ClassS}
	serial := NewRunner()
	par := NewRunner()
	par.SimWorkers = 4
	for _, spec := range []Spec{NoCkpt, ReCkptNE, ReCkptE} {
		want, err := serial.Run("is", p, spec)
		if err != nil {
			t.Fatalf("%v serial: %v", spec, err)
		}
		got, err := par.Run("is", p, spec)
		if err != nil {
			t.Fatalf("%v parallel: %v", spec, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: SimWorkers=4 diverged from serial:\nserial:   %+v\nparallel: %+v", spec, want, got)
		}
	}

	// RunObserved at SimWorkers 1 replays serially; against a
	// parallel-warmed cache that is the workers>1 vs workers=1 cross-check
	// acrsim's telemetry guard relies on.
	cached, err := par.Run("is", p, ReCkptE)
	if err != nil {
		t.Fatal(err)
	}
	par.SimWorkers = 1
	obs := &streamRecorder{}
	replayed, err := par.RunObserved("is", p, ReCkptE, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, replayed) {
		t.Errorf("serial replay diverged from parallel-cached run:\ncached:   %+v\nreplayed: %+v", cached, replayed)
	}
	if len(obs.events) == 0 {
		t.Error("observer saw no events during the serial replay")
	}
}
