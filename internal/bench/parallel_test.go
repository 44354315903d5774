package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestParallelDriverMatchesSerial is the driver half of the determinism
// regression: the same experiment grid executed serially and through a
// forced multi-worker pool must produce byte-identical sim.Result structs,
// in job order, each equal to a fresh run of its own job. Workers is forced above 1 so the concurrent path runs even
// on a single-CPU machine (go test -race then exercises the cache).
func TestParallelDriverMatchesSerial(t *testing.T) {
	p := tinyParams()
	spec := ReCkptE // faulted, amnesic: the config with the most machinery
	spec.Errors = 2
	jobs := []Job{
		{Bench: "is", Params: p, Spec: NoCkpt},
		{Bench: "is", Params: p, Spec: CkptNE},
		{Bench: "is", Params: p, Spec: spec},
		{Bench: "lu", Params: p, Spec: spec},
		{Bench: "mg", Params: p, Spec: ReCkptNE},
	}

	serial := NewRunner()
	serial.Workers = 1
	want, err := serial.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}

	par := NewRunner()
	par.Workers = 4
	got, err := par.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d (%s %v): parallel result differs from serial:\n%+v\n%+v",
				i, jobs[i].Bench, jobs[i].Spec, got[i], want[i])
		}
	}

	// Each result is its own job's run: a pool that returned the right
	// results in a consistent wrong order would still match serial above.
	for i, j := range jobs {
		fresh, err := NewRunner().Run(j.Bench, j.Params, j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], fresh) {
			t.Errorf("job %d (%s %v): RunAll result differs from a fresh Run of the job", i, j.Bench, j.Spec)
		}
	}

	// And a second parallel pass over a fresh runner replays identically.
	again := NewRunner()
	again.Workers = 4
	rerun, err := again.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rerun, got) {
		t.Error("parallel driver not deterministic across runs")
	}
}

// TestRunAllReportsFirstFailingJob: errors surface by job order, not by
// completion order, so failure reporting is deterministic too.
func TestRunAllReportsFirstFailingJob(t *testing.T) {
	r := NewRunner()
	r.Workers = 4
	jobs := []Job{
		{Bench: "is", Params: tinyParams(), Spec: NoCkpt},
		{Bench: "bogus1", Params: tinyParams(), Spec: NoCkpt},
		{Bench: "bogus2", Params: tinyParams(), Spec: NoCkpt},
	}
	_, err := r.RunAll(jobs)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "bogus1") {
		t.Errorf("error does not name the first failing job: %v", err)
	}
}

// TestRunAllRejectsNegativeCounts: a negative checkpoint budget used to
// divide by zero (-1) or fail with an unrelated checkpoint error, and a
// negative error count or threshold ran silently; each must be an error
// naming the field, returned from the worker pool rather than a panic.
func TestRunAllRejectsNegativeCounts(t *testing.T) {
	for _, c := range []struct {
		field string
		spec  Spec
	}{
		{"NumCkpts", Spec{Ckpt: true, NumCkpts: -1}},
		{"NumCkpts", Spec{Ckpt: true, NumCkpts: -5}},
		{"Errors", Spec{Ckpt: true, Errors: -1}},
		{"Threshold", Spec{Ckpt: true, Strategy: ReCkptNE.Strategy, Threshold: -3}},
	} {
		r := NewRunner()
		r.Workers = 2
		_, err := r.RunAll([]Job{{Bench: "is", Params: tinyParams(), Spec: c.spec}})
		if err == nil || !strings.Contains(err.Error(), "Spec."+c.field) {
			t.Errorf("%+v: got error %v, want one naming Spec.%s", c.spec, err, c.field)
		}
	}
}

// TestRunnerConcurrentSameKey: concurrent requests for one key must share a
// single execution (the once gate), not race or duplicate work.
func TestRunnerConcurrentSameKey(t *testing.T) {
	r := NewRunner()
	r.Workers = 8
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Bench: "is", Params: tinyParams(), Spec: CkptNE}
	}
	out, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if !reflect.DeepEqual(out[i], out[0]) {
			t.Fatalf("duplicate jobs disagree at %d", i)
		}
	}
	if len(r.cache) != 2 { // the run + its NoCkpt baseline
		t.Errorf("cache holds %d entries, want 2", len(r.cache))
	}
}
