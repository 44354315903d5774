package obsrv

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acr/internal/bench"
	"acr/internal/sim"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

func testJob() bench.Job {
	return bench.Job{
		Bench:  "is",
		Params: bench.Params{Threads: 2, Class: workloads.ClassS},
		Spec:   bench.CkptNE,
	}
}

func feed(obs []sim.Observer, events ...sim.Event) {
	for _, e := range events {
		for _, o := range obs {
			o.OnEvent(e)
		}
	}
}

func TestRegistryRunLifecycle(t *testing.T) {
	g, err := NewRegistry(Options{FlightCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	j := testJob()
	key := j.KeyString()
	token := g.JobBegin(j, key, false)

	rec, ok := g.Get(key)
	if !ok || rec.Status != StatusRunning {
		t.Fatalf("after JobBegin: ok=%v status=%q, want running", ok, rec.Status)
	}
	if rec.Bench != "is" || rec.Threads != 2 || rec.Class != "S" || rec.Config != "Ckpt_NE" {
		t.Fatalf("record misdescribes the job: %+v", rec)
	}
	if rec.Strategy != "full" {
		t.Fatalf("strategy=%q, want full", rec.Strategy)
	}

	feed(token.Observers(),
		sim.Event{Time: 10, Kind: sim.EvCheckpoint, Core: -1, Detail: 5},
		sim.Event{Time: 20, Kind: sim.EvBarrier, Core: 1},
	)
	events, last, missed, status, ok := g.Events(key, 0)
	if !ok || len(events) != 2 || last != 2 || missed != 0 || status != StatusRunning {
		t.Fatalf("Events: ok=%v n=%d last=%d missed=%d status=%q", ok, len(events), last, missed, status)
	}

	token.JobEnd(sim.Result{Cycles: 1000, Instrs: 500, EnergyPJ: 42}, nil)
	rec, _ = g.Get(key)
	if rec.Status != StatusDone {
		t.Fatalf("status=%q, want done", rec.Status)
	}
	if rec.Summary == nil || rec.Summary.Cycles != 1000 || rec.Summary.Instrs != 500 {
		t.Fatalf("summary: %+v", rec.Summary)
	}
	if len(rec.Metrics) == 0 {
		t.Fatal("finished run lacks a metrics snapshot")
	}
	if rec.EventsSeen != 2 || rec.EventsHeld != 2 {
		t.Fatalf("events seen=%d held=%d, want 2/2", rec.EventsSeen, rec.EventsHeld)
	}
	if rec.EndUnixNano == 0 || rec.EndUnixNano < rec.StartUnixNano {
		t.Fatalf("wall times: start=%d end=%d", rec.StartUnixNano, rec.EndUnixNano)
	}
}

// TestRegistryObservationInvariant: the registry's runObserver is one-way,
// so a runner with the registry attached returns bit-identical results to
// one without, for an error-free and a recovering amnesic job.
func TestRegistryObservationInvariant(t *testing.T) {
	p := bench.Params{Threads: 2, Class: workloads.ClassS}
	faulted := bench.ReCkptE
	faulted.Errors = 2
	jobs := []bench.Job{
		{Bench: "is", Params: p, Spec: bench.ReCkptE},
		{Bench: "is", Params: p, Spec: faulted},
	}
	want, err := bench.NewRunner().RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}

	g, err := NewRegistry(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	observed := bench.NewRunner()
	observed.Lifecycle = g
	got, err := observed.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("job %d: results diverge with the registry attached\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
	if rec, ok := g.Get(jobs[1].KeyString()); !ok || rec.EventsSeen == 0 {
		t.Fatalf("registry observed no events for the faulted job: ok=%v %+v", ok, rec)
	}
}

func TestRegistryFailureAndReattempt(t *testing.T) {
	g, err := NewRegistry(Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	key := j.KeyString()

	token := g.JobBegin(j, key, false)
	feed(token.Observers(), sim.Event{Time: 1, Kind: sim.EvCheckpoint, Core: -1})
	token.JobEnd(sim.Result{}, errors.New("injected"))
	rec, _ := g.Get(key)
	if rec.Status != StatusFailed || rec.Error != "injected" || rec.Err() == nil {
		t.Fatalf("failed run: %+v", rec)
	}

	// Re-beginning the same key is a new attempt on the same record; the
	// flight ring persists across attempts.
	token = g.JobBegin(j, key, true)
	rec, _ = g.Get(key)
	if rec.Attempts != 2 || rec.Status != StatusRunning || !rec.Shared {
		t.Fatalf("re-begin: attempts=%d status=%q shared=%v", rec.Attempts, rec.Status, rec.Shared)
	}
	if rec.EventsSeen != 1 {
		t.Fatalf("flight ring should persist across attempts: seen=%d", rec.EventsSeen)
	}
	token.JobEnd(sim.Result{Cycles: 7}, nil)
	if runs := g.Runs(); len(runs) != 1 {
		t.Fatalf("re-begin registered a duplicate: %d runs", len(runs))
	}
}

func TestRegistryJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	g, err := NewRegistry(Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}

	done := testJob()
	g.JobBegin(done, done.KeyString(), false).
		JobEnd(sim.Result{Cycles: 123, Instrs: 77}, nil)

	interrupted := testJob()
	interrupted.Spec = bench.ReCkptE
	g.JobBegin(interrupted, interrupted.KeyString(), false) // no JobEnd: dies running
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh registry (a restarted process) reconstructs the runs.
	g2, err := NewRegistry(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.LoadJournal(path); err != nil {
		t.Fatal(err)
	}
	runs := g2.Runs()
	if len(runs) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(runs))
	}
	rec, ok := g2.Get(done.KeyString())
	if !ok || rec.Status != StatusDone || rec.Summary == nil || rec.Summary.Cycles != 123 {
		t.Fatalf("done run: ok=%v %+v", ok, rec)
	}
	if len(rec.Metrics) == 0 {
		t.Fatal("journal end-line should carry the metrics snapshot")
	}
	rec, ok = g2.Get(interrupted.KeyString())
	if !ok || rec.Status != StatusInterrupted {
		t.Fatalf("interrupted run: ok=%v status=%q", ok, rec.Status)
	}
	if !strings.Contains(rec.Error, "interrupted") {
		t.Fatalf("interrupted run error: %q", rec.Error)
	}
	if rec.EventsHeld != 0 {
		t.Fatal("journal-loaded runs cannot retain events")
	}

	// Missing journals are fine (first run with a fresh path).
	if err := g2.LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl")); err != nil {
		t.Fatalf("missing journal: %v", err)
	}
}

func TestRegistryCountByStatusAndDump(t *testing.T) {
	g, _ := NewRegistry(Options{})
	j := testJob()
	token := g.JobBegin(j, j.KeyString(), false)
	feed(token.Observers(), sim.Event{Time: 5, Kind: sim.EvCheckpoint, Core: -1})
	token.JobEnd(sim.Result{Cycles: 1}, nil)

	counts := g.CountByStatus()
	if counts[StatusDone] != 1 || counts[StatusRunning] != 0 {
		t.Fatalf("counts: %v", counts)
	}

	var dump strings.Builder
	g.DumpFlight(func(format string, args ...any) {
		dump.WriteString(strings.TrimSpace(format))
		_ = args
	})
	if dump.Len() == 0 {
		t.Fatal("DumpFlight wrote nothing for a run with events")
	}
}

// execCounting wraps a lifecycle and counts the machine executions its
// jobs perform: each completed execution hands its scheduler statistics to
// the attached observers.
type execCounting struct {
	bench.Lifecycle
	execs int
}

func (c *execCounting) JobBegin(j bench.Job, key string, shared bool) bench.JobObservation {
	return countedObservation{c.Lifecycle.JobBegin(j, key, shared), c}
}

func (c *execCounting) OnEvent(sim.Event)                {}
func (c *execCounting) ObserveSchedStats(sim.SchedStats) { c.execs++ }

type countedObservation struct {
	bench.JobObservation
	c *execCounting
}

func (o countedObservation) Observers() []sim.Observer {
	return append(o.JobObservation.Observers(), o.c)
}

// TestRegistryMetricsDescribeConvergedRun: a checkpointed RunAll job
// calibrates its period over several executions, yet the run's
// event-driven metric families must describe only the converged one —
// exactly what a fresh collector sees through Runner.RunObserved.
func TestRegistryMetricsDescribeConvergedRun(t *testing.T) {
	j := bench.Job{Bench: "is", Params: bench.Params{Threads: 4, Class: workloads.ClassS}, Spec: bench.ReCkptE}

	g, err := NewRegistry(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	lc := &execCounting{Lifecycle: g}
	r := bench.NewRunner()
	r.Lifecycle = lc
	if _, err := r.RunAll([]bench.Job{j}); err != nil {
		t.Fatal(err)
	}
	if lc.execs < 2 {
		t.Fatalf("job ran %d execution(s); the test needs a calibrating job", lc.execs)
	}
	rec, ok := g.Get(j.KeyString())
	if !ok || rec.Status != StatusDone {
		t.Fatalf("run record: ok=%v %+v", ok, rec)
	}
	got := make(map[string]telemetry.SnapshotFamily)
	for _, f := range rec.Metrics {
		got[f.Name] = f
	}

	reg := telemetry.NewRegistry()
	if _, err := bench.NewRunner().RunObserved(j.Bench, j.Params, j.Spec, telemetry.NewCollector(reg)); err != nil {
		t.Fatal(err)
	}
	for _, want := range reg.Snapshot() {
		if !reflect.DeepEqual(got[want.Name], want) {
			t.Errorf("%s over %d executions:\n got  %+v\n want %+v", want.Name, lc.execs, got[want.Name], want)
		}
	}
}
