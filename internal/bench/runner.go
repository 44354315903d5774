// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§IV–§V) from simulator runs. Each
// experiment has a generator returning a stats.Table; cmd/acrbench drives
// them, and the root package's TestPaperShapes checks their class-S shapes.
package bench

import (
	"fmt"
	"sync"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// Spec names one of the paper's configurations (§IV). runKey embeds the
// Spec as given, so every field is part of the memoisation key.
type Spec struct {
	// Ckpt enables checkpointing; Errors injects that many fail-stop
	// errors; Local selects coordinated local checkpointing.
	Ckpt   bool
	Errors int
	Local  bool
	// Threshold overrides the benchmark's Slice-length threshold
	// (0 keeps the benchmark default: 10, or 5 for is).
	Threshold int
	// NumCkpts sets the checkpoint budget used to derive the period
	// (0 = the paper's default of 25, §V-D3).
	NumCkpts int

	// Extensions beyond the paper's configurations, used by the
	// ablation experiments:
	// CostPolicy replaces the greedy threshold with the cost-based
	// Slice selection the paper sketches in §III-A.
	CostPolicy bool
	// Adaptive enables recomputation-aware checkpoint placement
	// (§V-D1/§V-D3 future work).
	Adaptive bool
	// MapCapacity overrides the AddrMap record capacity (0 = 4096 per
	// core).
	MapCapacity int
	// DetectFrac overrides the error-detection latency as a fraction of
	// the checkpoint period (0 = the default 0.5; must stay ≤ the
	// strategy's retained-checkpoint depth minus one).
	DetectFrac float64

	// Strategy selects the checkpoint scheme (ckpt.Kinds); the zero value
	// is the conventional full-logging baseline, and the amnesic-family
	// strategies (amnesic, auto) attach ACR.
	Strategy ckpt.Kind
}

// Kind returns the checkpoint strategy the Spec selects — the name CLIs
// and telemetry should report.
func (s Spec) Kind() ckpt.Kind {
	return s.Strategy
}

// The paper's named configurations.
var (
	NoCkpt      = Spec{}
	CkptNE      = Spec{Ckpt: true}
	CkptE       = Spec{Ckpt: true, Errors: 1}
	ReCkptNE    = Spec{Ckpt: true, Strategy: ckpt.KindAmnesic}
	ReCkptE     = Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, Errors: 1}
	CkptNELoc   = Spec{Ckpt: true, Local: true}
	CkptELoc    = Spec{Ckpt: true, Errors: 1, Local: true}
	ReCkptNELoc = Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, Local: true}
	ReCkptELoc  = Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, Errors: 1, Local: true}
)

// String renders the paper's name for the configuration.
func (s Spec) String() string {
	if !s.Ckpt {
		return "NoCkpt"
	}
	var name string
	switch s.Strategy {
	case ckpt.KindAmnesic:
		name = "ReCkpt"
	case ckpt.KindDifferential:
		name = "DiffCkpt"
	case ckpt.KindTiered:
		name = "TierCkpt"
	case ckpt.KindAuto:
		name = "AutoCkpt"
	default:
		name = "Ckpt"
	}
	if s.Errors > 0 {
		name += "_E"
	} else {
		name += "_NE"
	}
	if s.Local {
		name += ",Loc"
	}
	return name
}

// Params fixes the machine scale for a set of experiments.
type Params struct {
	Threads int
	Class   workloads.Class
}

// DefaultNumCkpts is the paper's default checkpoint count per run.
const DefaultNumCkpts = 25

// runKey is the memoisation key: a pure value (TestMemoKeyIsPureValue
// rejects any reference-typed field), so semantically equal configurations
// hit one cell.
type runKey struct {
	bench   string
	threads int
	class   string
	spec    Spec
}

// Runner executes configurations with memoisation: figures 6–8 share runs,
// and every checkpointed run shares its NoCkpt baseline. The cache is safe
// for concurrent use — RunAll executes experiment grids through a worker
// pool — and deduplicates in-flight work: concurrent requests for the same
// key block on one execution instead of repeating it.
//
// Exported fields are driver knobs living outside the memo key; each must
// be listed in memoExemptKnobs (memokey_test.go) with the test proving it
// result-invariant, or TestRunnerKnobsDeclared fails.
type Runner struct {
	// Workers bounds RunAll's worker pool; 0 means GOMAXPROCS. Results
	// are bit-identical at any pool width — jobs are independent machines
	// and results return in job order — so the knob stays outside the key.
	Workers int

	// SimWorkers is unread: every machine runs the one serial engine. It
	// remains only because the benchmark harness under perfbench/ still
	// assigns it; the next change to that harness drops the assignment,
	// and then this field goes too.
	SimWorkers int

	// Lifecycle, when non-nil, receives job begin/end notifications from
	// RunAll and may attach observers to executions (perfbench's
	// execution counter rides on it). Observation is strictly one-way —
	// observers cannot change simulated results, so the hook stays
	// outside the memo key and a cache warmed with a lifecycle attached
	// serves runs without one, bit-identically.
	Lifecycle Lifecycle

	mu      sync.Mutex
	cache   map[runKey]*runEntry
	reports []JobReport
}

// runEntry is one memoised cell: the once gate serialises computation so a
// key is simulated exactly once no matter how many goroutines request it.
type runEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// NewRunner returns an empty-cache runner.
func NewRunner() *Runner {
	return &Runner{cache: make(map[runKey]*runEntry)}
}

// Run executes benchmark bench under spec at the given scale, memoised.
// It is safe to call concurrently; dependent runs (a checkpointed spec
// calibrating against its NoCkpt baseline) nest through distinct cache
// entries, so the once gates cannot deadlock.
func (r *Runner) Run(benchName string, p Params, spec Spec) (sim.Result, error) {
	return r.runWith(Job{Bench: benchName, Params: p, Spec: spec}, nil)
}

// runWith is Run observed by tok (nil for none): every machine execution
// performed for the key, calibration attempts included, asks tok for a
// fresh set of observers (dependent baseline runs are their own keys and
// stay unobserved). Only the caller that wins the once gate observes —
// concurrent requests for an in-flight key share the result, not the
// event stream.
func (r *Runner) runWith(j Job, tok JobObservation) (sim.Result, error) {
	e := r.entry(j.key())
	e.once.Do(func() { e.res, e.err = r.run(j, tok) })
	return e.res, e.err
}

func (r *Runner) entry(key runKey) *runEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.cache[key]
	if e == nil {
		e = &runEntry{}
		r.cache[key] = e
	}
	return e
}

// Baseline returns the NoCkpt run for the benchmark at the given scale.
func (r *Runner) Baseline(benchName string, p Params) (sim.Result, error) {
	return r.Run(benchName, p, NoCkpt)
}

func (r *Runner) run(j Job, tok JobObservation) (sim.Result, error) {
	bench, err := workloads.ByName(j.Bench)
	if err != nil {
		return sim.Result{}, err
	}
	if !j.Spec.Ckpt {
		return r.execute(bench, j, 0, 0, observersOf(tok)...)
	}

	// The paper fixes the number of checkpoints per run and distributes
	// them uniformly over the *checkpointed* execution (§IV, §V-D3).
	// The runtime is not known before the run, so the period is
	// calibrated by fixed point: start from the NoCkpt runtime, re-derive
	// the period from each run's realised length, and stop once the
	// final checkpoint lands in the last fraction of the run.
	base, err := r.Baseline(j.Bench, j.Params)
	if err != nil {
		return sim.Result{}, err
	}
	n := ckptBudget(j.Spec)
	roi := int64(float64(base.Cycles) * bench.WarmupFrac)
	horizon := base.Cycles
	var res sim.Result
	for attempt := 0; attempt < 4; attempt++ {
		period := (horizon - roi) / (n + 1)
		if period < 1 {
			period = 1
		}
		res, err = r.execute(bench, j, period, roi, observersOf(tok)...)
		if err != nil {
			return sim.Result{}, err
		}
		// Converged when the n budgeted checkpoints cover the run:
		// the realised run is within one period of n+1 periods past
		// the ROI start.
		if res.Cycles-roi <= (n+2)*period {
			break
		}
		horizon = res.Cycles
	}
	return res, nil
}

// observersOf returns tok's observers for one machine execution, or none
// when the job is unobserved.
func observersOf(tok JobObservation) []sim.Observer {
	if tok == nil {
		return nil
	}
	return tok.Observers()
}

// ckptBudget is the number of checkpoints spec distributes over its run.
func ckptBudget(spec Spec) int64 {
	if spec.NumCkpts == 0 {
		return DefaultNumCkpts
	}
	return int64(spec.NumCkpts)
}

// MachineConfig translates job j into the sim.Config the Runner executes it
// with, at the given checkpoint period and ROI start (both unused when the
// spec does not checkpoint). The checkpoint budget is Spec.NumCkpts.
// Observers are left at their default.
func MachineConfig(j Job, period, roi int64) (sim.Config, error) {
	bench, err := workloads.ByName(j.Bench)
	if err != nil {
		return sim.Config{}, err
	}
	return machineConfig(bench, j, period, roi), nil
}

func machineConfig(bench workloads.Bench, j Job, period, roi int64) sim.Config {
	spec := j.Spec
	cfg := sim.DefaultConfig(j.Params.Threads)
	if !spec.Ckpt {
		return cfg
	}
	n := ckptBudget(spec)
	cfg.Checkpointing = true
	cfg.Strategy = spec.Strategy
	cfg.PeriodCycles = period
	cfg.MaxCheckpoints = n
	cfg.ROIStartCycles = roi
	if spec.Local {
		cfg.Mode = ckpt.Local
	}
	if spec.Strategy.Amnesic() {
		threshold := spec.Threshold
		if threshold == 0 {
			threshold = bench.Threshold
		}
		capacity := spec.MapCapacity
		if capacity == 0 {
			capacity = 4096 * j.Params.Threads
		}
		cfg.ACR = acr.Config{Threshold: threshold, MapCapacity: capacity}
		if spec.CostPolicy {
			cfg.ACR.Policy = acr.PolicyCost
		}
		cfg.AdaptivePlacement = spec.Adaptive
	}
	if spec.Errors > 0 {
		// Errors uniformly distributed over the ROI (§V-D2), detection
		// latency of half a period by default (≤ period, §II-A).
		frac := spec.DetectFrac
		if frac == 0 {
			frac = 0.5
		}
		lat := int64(float64(period) * frac)
		cfg.Errors = fault.UniformIn(spec.Errors, roi, roi+period*n, lat)
	}
	return cfg
}

// execute builds and runs one machine for job j.
func (r *Runner) execute(bench workloads.Bench, j Job, period, roi int64, obs ...sim.Observer) (sim.Result, error) {
	cfg := machineConfig(bench, j, period, roi)
	cfg.Observers = obs
	program, err := bench.Build(j.Params.Threads, j.Params.Class)
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, j.Spec, err)
	}
	m, err := sim.New(cfg, program)
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, j.Spec, err)
	}
	res, err := m.Run()
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, j.Spec, err)
	}
	return res, nil
}

// BenchNames returns the evaluation order used by the paper's figures.
func BenchNames() []string {
	return []string{"bt", "cg", "dc", "ft", "is", "lu", "mg", "sp"}
}
