package bench

import (
	"fmt"
	"runtime"

	"acr/internal/ckpt"
	"acr/internal/stats"
	"acr/internal/workloads"
)

// This file implements the strategy-matrix experiment: every checkpoint
// strategy crossed with a set of workloads and core counts, in error-free
// and error-injected variants, reported against each scale's NoCkpt
// baseline. It is the evaluation for the pluggable strategy engine — the
// per-strategy cost signatures (inline log stall vs sealed delta scan vs
// fast-tier drain vs statically pruned associations) must separate in this
// table, or the strategies are labels rather than mechanisms.

// StrategySpecs returns one Spec per checkpoint strategy, with the given
// injected-error count.
func StrategySpecs(errors int) []Spec {
	specs := make([]Spec, 0, len(ckpt.Kinds()))
	for _, k := range ckpt.Kinds() {
		specs = append(specs, Spec{Ckpt: true, Strategy: k, Errors: errors})
	}
	return specs
}

// StrategyCell is one cell of the strategy matrix: a benchmark at a core
// count under one strategy, with its overheads and traffic decomposition.
type StrategyCell struct {
	Bench    string `json:"bench"`
	Threads  int    `json:"threads"`
	Strategy string `json:"strategy"`

	// Overheads w.r.t. the NoCkpt baseline at the same scale, percent.
	TimeOvhNE   float64 `json:"time_ovh_ne_pct"`
	EnergyOvhNE float64 `json:"energy_ovh_ne_pct"`
	TimeOvhE    float64 `json:"time_ovh_e_pct"`
	EnergyOvhE  float64 `json:"energy_ovh_e_pct"`

	// Traffic decomposition of the error-free run: each strategy's
	// distinguishing counters.
	Logged     int64 `json:"logged_words"`
	Omitted    int64 `json:"omitted_words"`
	Delta      int64 `json:"delta_words"`
	FastLog    int64 `json:"fast_log_words"`
	Demoted    int64 `json:"demoted_words"`
	Recoveries int64 `json:"recoveries"`
}

// StrategyMatrixDoc is the exportable strategy-matrix result.
type StrategyMatrixDoc struct {
	Class    string         `json:"class"`
	NumCkpts int            `json:"num_ckpts"`
	Errors   int            `json:"errors"`
	HostCPUs int            `json:"host_cpus"`
	Cells    []StrategyCell `json:"cells"`
}

// StrategyMatrixDoc runs the full strategy × benchmark × core-count grid
// and returns the structured result. errors is the injected-error count of
// the _E variants.
func (r *Runner) StrategyMatrixDoc(benches []string, threadCounts []int, class workloads.Class, errors int) (*StrategyMatrixDoc, error) {
	doc := &StrategyMatrixDoc{
		Class:    class.Name,
		NumCkpts: DefaultNumCkpts,
		Errors:   errors,
		HostCPUs: runtime.NumCPU(),
	}
	specs := append([]Spec{NoCkpt}, append(StrategySpecs(0), StrategySpecs(errors)...)...)
	var jobs []Job
	for _, threads := range threadCounts {
		p := Params{Threads: threads, Class: class}
		for _, benchName := range benches {
			for _, s := range specs {
				jobs = append(jobs, Job{Bench: benchName, Params: p, Spec: s})
			}
		}
	}
	res, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	kinds := ckpt.Kinds()
	for _, threads := range threadCounts {
		for _, benchName := range benches {
			// This (threads, bench) cell's results: NoCkpt, then every
			// kind error-free, then every kind with errors.
			base, ne, er := res[0], res[1:1+len(kinds)], res[1+len(kinds):len(specs)]
			res = res[len(specs):]
			for k, kind := range kinds {
				doc.Cells = append(doc.Cells, StrategyCell{
					Bench:       benchName,
					Threads:     threads,
					Strategy:    kind.String(),
					TimeOvhNE:   timeOvh(ne[k], base),
					EnergyOvhNE: stats.OverheadPct(ne[k].EnergyPJ, base.EnergyPJ),
					TimeOvhE:    timeOvh(er[k], base),
					EnergyOvhE:  stats.OverheadPct(er[k].EnergyPJ, base.EnergyPJ),
					Logged:      ne[k].Ckpt.LoggedWords,
					Omitted:     ne[k].Ckpt.OmittedWords,
					Delta:       ne[k].Ckpt.DeltaWords,
					FastLog:     ne[k].Ckpt.FastLogWords,
					Demoted:     ne[k].Ckpt.DemotedWords,
					Recoveries:  er[k].Ckpt.Recoveries,
				})
			}
		}
	}
	return doc, nil
}

// Table renders the strategy matrix as a table.
func (doc *StrategyMatrixDoc) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Checkpoint-strategy matrix (class %s, %d ckpts, %d error(s) in _E)",
			doc.Class, doc.NumCkpts, doc.Errors),
		Cols: []string{"bench", "cores", "strategy",
			"tNE%", "eNE%", "tE%", "eE%",
			"logged", "omitted", "delta", "fast", "demoted"},
	}
	for _, c := range doc.Cells {
		t.AddRow(c.Bench, fmt.Sprintf("%d", c.Threads), c.Strategy,
			fmt.Sprintf("%.2f", c.TimeOvhNE), fmt.Sprintf("%.2f", c.EnergyOvhNE),
			fmt.Sprintf("%.2f", c.TimeOvhE), fmt.Sprintf("%.2f", c.EnergyOvhE),
			fmt.Sprintf("%d", c.Logged), fmt.Sprintf("%d", c.Omitted),
			fmt.Sprintf("%d", c.Delta), fmt.Sprintf("%d", c.FastLog),
			fmt.Sprintf("%d", c.Demoted))
	}
	t.AddNote("Overheads w.r.t. NoCkpt at the same core count; traffic columns from the error-free run.")
	t.AddNote("full: inline 2-word undo log to DRAM. amnesic: log minus AddrMap omissions.")
	t.AddNote("differential: no inline log; dirty words sealed into the checkpoint (delta).")
	t.AddNote("tiered: inline log to the fast NVM tier (fast), demoted to DRAM at depth %d of %d retained.",
		ckpt.TieredFastRetain, ckpt.TieredRetention)
	t.AddNote("auto: amnesic plus the static site plan (pruned/boosted ASSOC sites).")
	return t
}
