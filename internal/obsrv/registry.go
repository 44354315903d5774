package obsrv

import (
	"fmt"
	"sync"
	"time"

	"acr/internal/bench"
	"acr/internal/sim"
	"acr/internal/telemetry"
)

// DefaultFlightCap is the per-run flight-recorder capacity: enough to hold
// every checkpoint/recovery event of a paper-scale run plus the barrier
// tail, while bounding memory for arbitrarily long sweeps.
const DefaultFlightCap = 4096

// Status is a run's lifecycle state.
type Status string

// Run statuses. StatusInterrupted marks journal-loaded records that were
// still running when their process died — the observatory's equivalent of
// a fail-stop error.
const (
	StatusRunning     Status = "running"
	StatusDone        Status = "done"
	StatusFailed      Status = "failed"
	StatusInterrupted Status = "interrupted"
)

// RunSummary is the compact, JSON-friendly view of a sim.Result a finished
// run exposes through /runs and the journal.
type RunSummary struct {
	Cycles          int64   `json:"cycles"`
	Instrs          int64   `json:"instrs"`
	EnergyPJ        float64 `json:"energy_pj"`
	DynamicPJ       float64 `json:"dynamic_pj"`
	EDP             float64 `json:"edp_pj_cycles"`
	Barriers        int64   `json:"barriers"`
	Checkpoints     int64   `json:"checkpoints"`
	Recoveries      int64   `json:"recoveries"`
	LoggedWords     int64   `json:"logged_words"`
	OmittedWords    int64   `json:"omitted_words"`
	RestoredWords   int64   `json:"restored_words"`
	RecomputedWords int64   `json:"recomputed_words"`
	PeriodCycles    int64   `json:"period_cycles"`
	ROIStartCycles  int64   `json:"roi_start_cycles"`
}

func summarize(res sim.Result) *RunSummary {
	return &RunSummary{
		Cycles:          res.Cycles,
		Instrs:          res.Instrs,
		EnergyPJ:        res.EnergyPJ,
		DynamicPJ:       res.DynamicPJ,
		EDP:             res.EDP(),
		Barriers:        res.Barriers,
		Checkpoints:     res.Ckpt.Checkpoints,
		Recoveries:      res.Ckpt.Recoveries,
		LoggedWords:     res.Ckpt.LoggedWords,
		OmittedWords:    res.Ckpt.OmittedWords,
		RestoredWords:   res.Ckpt.RestoredWords,
		RecomputedWords: res.Ckpt.RecomputedWords,
		PeriodCycles:    res.PeriodCycles,
		ROIStartCycles:  res.ROIStartCycles,
	}
}

// RunRecord is the registry's serialisable view of one run: the
// deterministic job key, the configuration it names, lifecycle state with
// host wall times, and — once finished — the result summary and the final
// telemetry snapshot.
type RunRecord struct {
	Key      string `json:"key"`
	Bench    string `json:"bench"`
	Config   string `json:"config"`
	Strategy string `json:"strategy,omitempty"`
	Threads  int    `json:"threads"`
	Class    string `json:"class"`

	Status   Status `json:"status"`
	Shared   bool   `json:"shared,omitempty"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`

	StartUnixNano int64 `json:"start_unix_nano"`
	EndUnixNano   int64 `json:"end_unix_nano,omitempty"`

	// EventsSeen counts flight-recorder events recorded for the run so
	// far; EventsHeld is how many the ring still retains.
	EventsSeen uint64 `json:"events_seen"`
	EventsHeld int    `json:"events_held"`

	Summary *RunSummary                `json:"summary,omitempty"`
	Metrics []telemetry.SnapshotFamily `json:"metrics,omitempty"`
}

// light returns the record without the (potentially large) metrics
// snapshot, for run listings and journal begin-lines.
func (rr RunRecord) light() RunRecord {
	rr.Metrics = nil
	return rr
}

// runState is one registered run: the record plus its live observation
// state, guarded by its own mutex so a scrape never blocks the whole
// registry and the simulation goroutine never blocks on other runs.
type runState struct {
	mu     sync.Mutex
	record RunRecord
	flight *flightRing
	reg    *telemetry.Registry
	col    *telemetry.Collector
}

// Options configures a Registry.
type Options struct {
	// FlightCap bounds each run's flight recorder (0 = DefaultFlightCap).
	FlightCap int
	// JournalPath, when non-empty, appends a JSONL journal line on every
	// run begin and end (see journal.go).
	JournalPath string
}

// Registry is the in-memory run table. It implements bench.Lifecycle, so
// attaching it to a bench.Runner registers every driver job; it is safe
// for concurrent use by the driver's worker pool and the HTTP observatory.
type Registry struct {
	opts Options

	mu    sync.Mutex
	runs  map[string]*runState
	order []string // registration order, for stable /runs listings

	journal *journal
}

// NewRegistry returns an empty registry. When opts.JournalPath is set, the
// journal file is opened for append immediately so a bind-time
// misconfiguration fails fast rather than at first run completion.
func NewRegistry(opts Options) (*Registry, error) {
	g := &Registry{opts: opts, runs: make(map[string]*runState)}
	if opts.JournalPath != "" {
		j, err := openJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		g.journal = j
	}
	return g, nil
}

// Close releases the journal file, if any.
func (g *Registry) Close() error {
	if g.journal == nil {
		return nil
	}
	return g.journal.close()
}

// runObserver is the sim.Observer the registry attaches to executions: a
// locked fan-out into the run's flight ring and metrics collector. It is
// strictly one-way: it mutates only the run's own observation state, never
// the machine (TestRegistryObservationInvariant checks results with and
// without it attached).
type runObserver struct {
	st *runState
}

// OnEvent implements sim.Observer.
func (o *runObserver) OnEvent(e sim.Event) {
	st := o.st
	st.mu.Lock()
	st.flight.push(e)
	st.record.EventsSeen = st.flight.seq
	st.record.EventsHeld = len(st.flight.buf)
	st.col.OnEvent(e)
	st.mu.Unlock()
}

// RunHandle is one observed job in flight; it implements
// bench.JobObservation.
type RunHandle struct {
	g  *Registry
	st *runState
}

// Observers implements bench.JobObservation. The runner asks once per
// machine execution, so the run's metrics registry and collector restart
// here: the final snapshot describes the last (converged) execution, not
// the sum of calibration attempts. The flight ring keeps running — its
// contract is recent activity.
func (h *RunHandle) Observers() []sim.Observer {
	h.st.mu.Lock()
	h.st.reg = telemetry.NewRegistry()
	h.st.col = telemetry.NewCollector(h.st.reg)
	h.st.mu.Unlock()
	return []sim.Observer{&runObserver{st: h.st}}
}

// JobEnd implements bench.JobObservation: it finalises the record with the
// result summary and telemetry snapshot and journals the transition.
func (h *RunHandle) JobEnd(res sim.Result, err error) {
	h.st.mu.Lock()
	rec := &h.st.record
	rec.EndUnixNano = time.Now().UnixNano()
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
	} else {
		rec.Status = StatusDone
		rec.Summary = summarize(res)
		h.st.col.ObserveResult(res)
		rec.Metrics = h.st.reg.Snapshot()
	}
	line := *rec
	h.st.mu.Unlock()
	h.g.appendJournal(line)
}

// JobBegin implements bench.Lifecycle. Re-beginning an existing key (a
// repeated sweep, or RunObserved after RunAll) reuses the record as a new
// attempt: the flight ring and its sequence numbers persist, while the
// metrics registry restarts so the final snapshot describes one execution.
func (g *Registry) JobBegin(j bench.Job, key string, shared bool) bench.JobObservation {
	g.mu.Lock()
	st := g.runs[key]
	if st == nil {
		st = &runState{flight: newFlightRing(g.opts.FlightCap)}
		g.runs[key] = st
		g.order = append(g.order, key)
	}
	g.mu.Unlock()

	st.mu.Lock()
	spec := j.Spec
	st.record = RunRecord{
		Key:           key,
		Bench:         j.Bench,
		Config:        spec.String(),
		Threads:       j.Params.Threads,
		Class:         j.Params.Class.Name,
		Status:        StatusRunning,
		Shared:        shared,
		Attempts:      st.record.Attempts + 1,
		StartUnixNano: time.Now().UnixNano(),
		EventsSeen:    st.flight.seq,
		EventsHeld:    len(st.flight.buf),
	}
	if spec.Ckpt {
		st.record.Strategy = spec.Kind().String()
	}
	st.reg = telemetry.NewRegistry()
	st.col = telemetry.NewCollector(st.reg)
	line := st.record
	st.mu.Unlock()
	g.appendJournal(line.light())
	return &RunHandle{g: g, st: st}
}

// Runs returns every record in registration order, without metrics
// snapshots (fetch one run for those).
func (g *Registry) Runs() []RunRecord {
	g.mu.Lock()
	order := append([]string(nil), g.order...)
	g.mu.Unlock()
	out := make([]RunRecord, 0, len(order))
	for _, key := range order {
		if rec, ok := g.Get(key); ok {
			out = append(out, rec.light())
		}
	}
	return out
}

// Get returns the full record for key, including — for finished runs — the
// metrics snapshot. For a running run the snapshot is taken live.
func (g *Registry) Get(key string) (RunRecord, bool) {
	g.mu.Lock()
	st := g.runs[key]
	g.mu.Unlock()
	if st == nil {
		return RunRecord{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.record
	if rec.Status == StatusRunning && st.reg != nil {
		rec.Metrics = st.reg.Snapshot()
	}
	return rec, true
}

// Events returns the retained flight-recorder events for key with sequence
// numbers > after (see flightRing.since), plus the run's current status.
func (g *Registry) Events(key string, after uint64) (events []sim.Event, last uint64, missed uint64, status Status, ok bool) {
	g.mu.Lock()
	st := g.runs[key]
	g.mu.Unlock()
	if st == nil {
		return nil, after, 0, "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	events, last, missed = st.flight.since(after)
	return events, last, missed, st.record.Status, true
}

// CountByStatus returns how many runs are in each lifecycle state, in a
// fixed order (running, done, failed, interrupted).
func (g *Registry) CountByStatus() map[Status]int {
	counts := map[Status]int{}
	for _, rec := range g.Runs() {
		counts[rec.Status]++
	}
	return counts
}

// EventView is the JSON form of one flight-recorder event.
type EventView struct {
	Seq    uint64 `json:"seq"`
	Time   int64  `json:"time"`
	Kind   string `json:"kind"`
	Core   int32  `json:"core"`
	Detail int64  `json:"detail"`
	Aux    int64  `json:"aux"`
	Dur    int64  `json:"dur"`
}

// viewEvents pairs events with their absolute sequence numbers: last is
// the sequence number of the final event in events.
func viewEvents(events []sim.Event, last uint64) []EventView {
	out := make([]EventView, len(events))
	base := last - uint64(len(events))
	for i, e := range events {
		out[i] = EventView{
			Seq:    base + uint64(i) + 1,
			Time:   e.Time,
			Kind:   e.Kind.String(),
			Core:   e.Core,
			Detail: e.Detail,
			Aux:    e.Aux,
			Dur:    e.Dur,
		}
	}
	return out
}

// DumpFlight writes the retained flight-recorder events of every run that
// has any, most recent runs last — the on-demand/on-panic dump. The CLIs
// call it from a recover wrapper so a crashing sweep leaves its recent
// event history on stderr.
func (g *Registry) DumpFlight(w func(format string, args ...any)) {
	for _, rec := range g.Runs() {
		events, last, missed, _, ok := g.Events(rec.Key, 0)
		if !ok || len(events) == 0 {
			continue
		}
		w("run %s (%s, %d/%d events retained, %d evicted):\n",
			rec.Key, rec.Status, len(events), rec.EventsSeen, missed)
		for _, ev := range viewEvents(events, last) {
			w("  #%d t=%d %s core=%d detail=%d aux=%d dur=%d\n",
				ev.Seq, ev.Time, ev.Kind, ev.Core, ev.Detail, ev.Aux, ev.Dur)
		}
	}
}

var _ bench.Lifecycle = (*Registry)(nil)
var _ bench.JobObservation = (*RunHandle)(nil)
var _ sim.Observer = (*runObserver)(nil)

// String renders a status for log lines.
func (s Status) String() string { return string(s) }

// Err returns a non-nil error when the record failed.
func (rr RunRecord) Err() error {
	if rr.Error == "" {
		return nil
	}
	return fmt.Errorf("%s", rr.Error)
}
