package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"acr/internal/bench"
	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/mem"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// workload is one fixed grid of simulator jobs: every kernel under every
// spec, at one machine width, class S.
type workload struct {
	name    string
	threads int
	specs   []bench.Spec
	// kinds are the checkpoint strategies the ckpt layer driver exercises:
	// the workload's own, or the conventional one where it has none.
	kinds []ckpt.Kind
}

// The workloads and why each was chosen are documented in README.md.
var allWorkloads = []workload{
	{
		name:    "paper-acr",
		threads: 8,
		specs:   []bench.Spec{bench.NoCkpt, bench.ReCkptE},
		kinds:   []ckpt.Kind{ckpt.KindAmnesic},
	},
	{
		name:    "ckpt-logging",
		threads: 8,
		specs: []bench.Spec{
			bench.CkptE,
			{Ckpt: true, Errors: 1, Strategy: ckpt.KindDifferential},
			{Ckpt: true, Errors: 1, Strategy: ckpt.KindTiered},
		},
		kinds: []ckpt.Kind{ckpt.KindFull, ckpt.KindDifferential, ckpt.KindTiered},
	},
	{
		// 64 cores is the widest machine on which every kernel stays
		// inside the shared region it reserves (README.md, known defect).
		name:    "wide-nockpt",
		threads: 64,
		specs:   []bench.Spec{bench.NoCkpt},
		kinds:   []ckpt.Kind{ckpt.KindFull},
	},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func (w workload) params() bench.Params {
	return bench.Params{Threads: w.threads, Class: workloads.ClassS}
}

// jobs lists the workload's jobs kernel-major, in the paper's order.
func (w workload) jobs() []bench.Job {
	var jobs []bench.Job
	for _, name := range bench.BenchNames() {
		for _, s := range w.specs {
			jobs = append(jobs, bench.Job{Bench: name, Params: w.params(), Spec: s})
		}
	}
	return jobs
}

// baselineJob is the NoCkpt job a checkpointed job calibrates against.
func baselineJob(j bench.Job) bench.Job {
	return bench.Job{Bench: j.Bench, Params: j.Params, Spec: bench.NoCkpt}
}

// outcome is the part of a sim.Result the correctness check compares: every
// simulated statistic a speed-only change must leave bit-identical.
type outcome struct {
	Cycles         int64
	Instrs         int64
	EnergyPJ       float64
	DynamicPJ      float64
	Barriers       int64
	Strategy       string
	PeriodCycles   int64
	ROIStartCycles int64
	Ckpt           ckpt.Stats
	AddrMap        acr.AddrMapStats
	Mem            mem.Stats
}

func outcomeOf(r sim.Result) outcome {
	return outcome{
		Cycles: r.Cycles, Instrs: r.Instrs,
		EnergyPJ: r.EnergyPJ, DynamicPJ: r.DynamicPJ,
		Barriers: r.Barriers, Strategy: r.Strategy,
		PeriodCycles: r.PeriodCycles, ROIStartCycles: r.ROIStartCycles,
		Ckpt: r.Ckpt, AddrMap: r.AddrMap, Mem: r.Mem,
	}
}

// diff names the fields where got differs from want.
func (want outcome) diff(got outcome) string {
	var fields []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			f := wv.Type().Field(i).Name
			switch wv.Field(i).Kind() {
			case reflect.Int64, reflect.Float64, reflect.String:
				f = fmt.Sprintf("%s %v, want %v", f, gv.Field(i).Interface(), wv.Field(i).Interface())
			}
			fields = append(fields, f)
		}
	}
	return strings.Join(fields, "; ")
}

// counts are the deterministic engine and driver work counts of one job's
// converged execution. Unlike an outcome they may legitimately change when
// the scheduler or the calibration loop changes, so they must repeat within
// a run, and a difference from the recorded counts is reported, not failed.
type counts struct {
	Spans       int64
	SpanInstrs  int64
	EagerCalls  int64
	EagerInstrs int64
	// Execs is the number of machine executions Runner.Run performed for
	// a checkpointed job (1 + calibration re-executions); 0 for NoCkpt
	// jobs, whose cache cell may be filled by another job's baseline.
	Execs int
}

func countsOf(s sim.SchedStats, execs int) counts {
	return counts{Spans: s.Spans, SpanInstrs: s.SpanInstrs, EagerCalls: s.EagerCalls, EagerInstrs: s.EagerInstrs, Execs: execs}
}

// expected is one job's recorded result, keyed by bench.Job.KeyString.
type expected struct {
	Result outcome
	Counts counts
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]expected, error) {
	var m map[string]expected
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// encodeExpected writes one job per line, sorted by key, so a re-recorded
// file diffs per job.
func encodeExpected(m map[string]expected) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%q: %s", k, v)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}

// machineConfig rebuilds the configuration bench.Runner executes job j with
// after calibration, taking the converged period and ROI start from the
// recorded result. Set-up timing builds machines from it, and the traced
// run executes them; comparing those results with the recorded ones checks
// that it matches the runner's own.
func machineConfig(j bench.Job, want outcome) (sim.Config, error) {
	k, err := workloads.ByName(j.Bench)
	if err != nil {
		return sim.Config{}, err
	}
	s := j.Spec
	if s.CostPolicy || s.Adaptive || s.MapCapacity != 0 || s.DetectFrac != 0 || s.Local {
		return sim.Config{}, fmt.Errorf("spec %v uses a knob the benchmark does not model", s)
	}
	cfg := sim.DefaultConfig(j.Params.Threads)
	if !s.Ckpt {
		return cfg, nil
	}
	n := int64(s.NumCkpts)
	if n == 0 {
		n = bench.DefaultNumCkpts
	}
	period, roi := want.PeriodCycles, want.ROIStartCycles
	cfg.Checkpointing = true
	cfg.Strategy = s.Kind()
	cfg.PeriodCycles = period
	cfg.MaxCheckpoints = n
	cfg.ROIStartCycles = roi
	if cfg.Strategy.Amnesic() {
		threshold := s.Threshold
		if threshold == 0 {
			threshold = k.Threshold
		}
		cfg.ACR = acr.Config{Threshold: threshold, MapCapacity: 4096 * j.Params.Threads}
	}
	if s.Errors > 0 {
		cfg.Errors = fault.UniformIn(s.Errors, roi, roi+period*n, int64(float64(period)*0.5))
	}
	return cfg, nil
}
