package bench

import (
	"fmt"

	"acr/internal/ckpt"
	"acr/internal/fault"
	"acr/internal/mem"
	"acr/internal/sim"
	"acr/internal/stats"
)

// TableI renders the simulated architecture (paper Table I).
func TableI() *stats.Table {
	cfg := mem.DefaultConfig()
	t := &stats.Table{Title: "Table I: Simulated architecture", Cols: []string{"Parameter", "Value"}}
	t.AddRow("Technology node", "22nm")
	t.AddRow("Core", "1.09 GHz, 4-issue, in-order, 8 outstanding ld/st")
	t.AddRow("L1-I (LRU)", fmt.Sprintf("%dKB, %d-way, 3.66ns", cfg.L1I.SizeBytes>>10, cfg.L1I.Ways))
	t.AddRow("L1-D (LRU, WB)", fmt.Sprintf("%dKB, %d-way, 3.66ns", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways))
	t.AddRow("L2 (LRU, WB)", fmt.Sprintf("%dKB, %d-way, 24.77ns", cfg.L2.SizeBytes>>10, cfg.L2.Ways))
	t.AddRow("Main Memory", fmt.Sprintf("120ns (%d cycles), 7.6 GB/s/controller, 1 contr. per %d cores",
		cfg.DRAMCycles, cfg.CoresPerController))
	return t
}

// Fig1 renders the relative component error rate across technology
// generations (paper Fig. 1, 8% degradation/bit/generation).
func Fig1(generations int) *stats.Table {
	t := &stats.Table{
		Title: "Fig. 1: Relative component error rate (8% degradation/bit/generation)",
		Cols:  []string{"Generation", "Relative error rate"},
	}
	for g := 0; g <= generations; g++ {
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.2f", fault.RelativeErrorRate(g)))
	}
	return t
}

// overheads collects the percentage time/energy overhead of spec w.r.t.
// NoCkpt for each benchmark.
func (r *Runner) overheads(p Params, spec Spec, energy bool) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, name := range BenchNames() {
		base, err := r.Baseline(name, p)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(name, p, spec)
		if err != nil {
			return nil, err
		}
		if energy {
			out[name] = stats.OverheadPct(res.EnergyPJ, base.EnergyPJ)
		} else {
			out[name] = stats.OverheadPct(float64(res.Cycles), float64(base.Cycles))
		}
	}
	return out, nil
}

// figOverheads builds Fig. 6 (time) or Fig. 7 (energy): the overhead of
// Ckpt_NE, Ckpt_E, ReCkpt_NE, ReCkpt_E w.r.t. NoCkpt, plus the reduction
// ReCkpt achieves over Ckpt.
func (r *Runner) figOverheads(p Params, energy bool) (*stats.Table, error) {
	kind, fig := "time", "Fig. 6"
	if energy {
		kind, fig = "energy", "Fig. 7"
	}
	t := &stats.Table{
		Title: fmt.Sprintf("%s: %% %s overhead of checkpointing and recovery (w.r.t. NoCkpt)", fig, kind),
		Cols: []string{"bench", "Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E",
			"redNE%", "redE%"},
	}
	specs := []Spec{CkptNE, CkptE, ReCkptNE, ReCkptE}
	if err := r.warm(p, append([]Spec{NoCkpt}, specs...)...); err != nil {
		return nil, err
	}
	ovh := make([]map[string]float64, len(specs))
	for i, s := range specs {
		m, err := r.overheads(p, s, energy)
		if err != nil {
			return nil, err
		}
		ovh[i] = m
	}
	var redNE, redE []float64
	for _, name := range BenchNames() {
		rNE := stats.ReductionPct(ovh[0][name], ovh[2][name])
		rE := stats.ReductionPct(ovh[1][name], ovh[3][name])
		redNE = append(redNE, rNE)
		redE = append(redE, rE)
		t.AddRow(name,
			stats.Pct(ovh[0][name]), stats.Pct(ovh[1][name]),
			stats.Pct(ovh[2][name]), stats.Pct(ovh[3][name]),
			stats.Pct(rNE), stats.Pct(rE))
	}
	t.AddRow("avg", "", "", "", "", stats.Pct(stats.Mean(redNE)), stats.Pct(stats.Mean(redE)))
	t.AddNote("redNE/redE: %% reduction of the %s overhead by ReCkpt w.r.t. Ckpt (error-free / 1 error)", kind)
	return t, nil
}

// Fig6 reproduces the execution-time overhead figure.
func (r *Runner) Fig6(p Params) (*stats.Table, error) { return r.figOverheads(p, false) }

// Fig7 reproduces the energy overhead figure.
func (r *Runner) Fig7(p Params) (*stats.Table, error) { return r.figOverheads(p, true) }

// Fig8 reproduces the EDP reduction of ReCkpt_NE and ReCkpt_E w.r.t.
// Ckpt_NE and Ckpt_E.
func (r *Runner) Fig8(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 8: % EDP reduction under ReCkpt_NE and ReCkpt_E (w.r.t. Ckpt_NE / Ckpt_E)",
		Cols:  []string{"bench", "ReCkpt_NE", "ReCkpt_E"},
	}
	if err := r.warm(p, NoCkpt, CkptNE, ReCkptNE, CkptE, ReCkptE); err != nil {
		return nil, err
	}
	var ne, e []float64
	for _, name := range BenchNames() {
		rCkNE, err := r.Run(name, p, CkptNE)
		if err != nil {
			return nil, err
		}
		rReNE, err := r.Run(name, p, ReCkptNE)
		if err != nil {
			return nil, err
		}
		rCkE, err := r.Run(name, p, CkptE)
		if err != nil {
			return nil, err
		}
		rReE, err := r.Run(name, p, ReCkptE)
		if err != nil {
			return nil, err
		}
		vNE := stats.ReductionPct(rCkNE.EDP(), rReNE.EDP())
		vE := stats.ReductionPct(rCkE.EDP(), rReE.EDP())
		ne = append(ne, vNE)
		e = append(e, vE)
		t.AddRow(name, stats.Pct(vNE), stats.Pct(vE))
	}
	t.AddRow("avg", stats.Pct(stats.Mean(ne)), stats.Pct(stats.Mean(e)))
	return t, nil
}

// sizeReduction computes the Overall and Max checkpoint size reductions of
// a ReCkpt_NE run (paper Fig. 9 semantics): Overall compares total
// checkpointed volume; Max compares the largest single checkpoint, whose
// reduction bounds the memory footprint win because two checkpoints are
// retained (§V-C).
func sizeReduction(res sim.Result) (overall, max float64) {
	var logged, omitted, maxBase, maxACR float64
	for _, iv := range res.Intervals {
		logged += float64(iv.Logged)
		omitted += float64(iv.Omitted)
		if s := float64(iv.Size()); s > maxBase {
			maxBase = s
		}
		if l := float64(iv.Logged); l > maxACR {
			maxACR = l
		}
	}
	total := logged + omitted
	if total > 0 {
		overall = omitted / total * 100
	}
	if maxBase > 0 {
		max = (maxBase - maxACR) / maxBase * 100
	}
	return overall, max
}

// Fig9 reproduces the checkpoint size reduction figure (Overall and Max).
func (r *Runner) Fig9(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 9: % reduction of checkpoint size under ReCkpt_NE (w.r.t. Ckpt_NE)",
		Cols:  []string{"bench", "Overall", "Max"},
	}
	if err := r.warm(p, ReCkptNE); err != nil {
		return nil, err
	}
	var all []float64
	for _, name := range BenchNames() {
		res, err := r.Run(name, p, ReCkptNE)
		if err != nil {
			return nil, err
		}
		overall, max := sizeReduction(res)
		all = append(all, overall)
		t.AddRow(name, stats.Pct(overall), stats.Pct(max))
	}
	t.AddRow("avg", stats.Pct(stats.Mean(all)), "")
	t.AddNote("Max = reduction of the largest single checkpoint (memory-footprint proxy, §V-C)")
	return t, nil
}

// TableII reproduces the Slice-length threshold sweep: total checkpoint
// size reduction under ReCkpt_NE for thresholds 10..50.
func (r *Runner) TableII(p Params) (*stats.Table, error) {
	thresholds := []int{10, 20, 30, 40, 50}
	t := &stats.Table{
		Title: "Table II: total checkpoint size reduction (%) w.r.t. Slice length threshold",
		Cols:  []string{"bench", "10", "20", "30", "40", "50"},
	}
	specs := make([]Spec, 0, len(thresholds))
	for _, th := range thresholds {
		spec := ReCkptNE
		spec.Threshold = th
		specs = append(specs, spec)
	}
	if err := r.warm(p, specs...); err != nil {
		return nil, err
	}
	for _, name := range BenchNames() {
		row := []string{name}
		for _, th := range thresholds {
			spec := ReCkptNE
			spec.Threshold = th
			res, err := r.Run(name, p, spec)
			if err != nil {
				return nil, err
			}
			overall, _ := sizeReduction(res)
			row = append(row, stats.Pct(overall))
		}
		t.AddRow(row...)
	}
	t.AddNote("the paper's Table II lists bt/cg/ft/is/lu/mg/sp; dc is included here for completeness")
	return t, nil
}

// Fig10 reproduces the per-interval checkpoint size reduction over time for
// one benchmark (the paper shows bt) across thresholds.
func (r *Runner) Fig10(p Params, benchName string) (*stats.Table, error) {
	thresholds := []int{10, 20, 30, 40, 50}
	jobs := make([]Job, 0, len(thresholds))
	for _, th := range thresholds {
		spec := ReCkptNE
		spec.Threshold = th
		jobs = append(jobs, Job{Bench: benchName, Params: p, Spec: spec})
	}
	if _, err := r.RunAll(jobs); err != nil {
		return nil, err
	}
	cols := []string{"interval"}
	series := make([][]float64, len(thresholds))
	maxLen := 0
	for i, th := range thresholds {
		cols = append(cols, fmt.Sprintf("thr=%d", th))
		spec := ReCkptNE
		spec.Threshold = th
		res, err := r.Run(benchName, p, spec)
		if err != nil {
			return nil, err
		}
		for _, iv := range res.Intervals {
			red := 0.0
			if iv.Size() > 0 {
				red = float64(iv.Omitted) / float64(iv.Size()) * 100
			}
			series[i] = append(series[i], red)
		}
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Fig. 10: %% checkpoint size reduction per interval over time (%s)", benchName),
		Cols:  cols,
	}
	for k := 0; k < maxLen; k++ {
		row := []string{fmt.Sprintf("%d", k+1)}
		for i := range thresholds {
			if k < len(series[i]) {
				row = append(row, stats.Pct(series[i][k]))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig11 reproduces the error-rate sweep: % time overhead of Ckpt_E and
// ReCkpt_E w.r.t. NoCkpt for 1..5 errors, with the EDP reduction series of
// §V-D2.
func (r *Runner) Fig11(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 11: % execution time overhead vs number of errors (w.r.t. NoCkpt)",
		Cols: []string{"bench",
			"Ckpt 1e", "Re 1e", "Ckpt 2e", "Re 2e", "Ckpt 3e", "Re 3e",
			"Ckpt 4e", "Re 4e", "Ckpt 5e", "Re 5e"},
	}
	specs := []Spec{NoCkpt}
	for e := 1; e <= 5; e++ {
		specs = append(specs,
			Spec{Ckpt: true, Errors: e},
			Spec{Ckpt: true, Errors: e, Strategy: ckpt.KindAmnesic})
	}
	if err := r.warm(p, specs...); err != nil {
		return nil, err
	}
	type cell struct{ ck, re float64 }
	grid := make(map[string][]cell)
	for _, name := range BenchNames() {
		base, err := r.Baseline(name, p)
		if err != nil {
			return nil, err
		}
		for e := 1; e <= 5; e++ {
			ck := Spec{Ckpt: true, Errors: e}
			re := Spec{Ckpt: true, Errors: e, Strategy: ckpt.KindAmnesic}
			rc, err := r.Run(name, p, ck)
			if err != nil {
				return nil, err
			}
			rr, err := r.Run(name, p, re)
			if err != nil {
				return nil, err
			}
			grid[name] = append(grid[name], cell{
				ck: stats.OverheadPct(float64(rc.Cycles), float64(base.Cycles)),
				re: stats.OverheadPct(float64(rr.Cycles), float64(base.Cycles)),
			})
		}
	}
	for _, name := range BenchNames() {
		row := []string{name}
		for _, c := range grid[name] {
			row = append(row, stats.Pct(c.ck), stats.Pct(c.re))
		}
		t.AddRow(row...)
	}
	// §V-D2 companion: per-error-count average reduction.
	for e := 0; e < 5; e++ {
		var reds []float64
		for _, name := range BenchNames() {
			c := grid[name][e]
			reds = append(reds, stats.ReductionPct(c.ck, c.re))
		}
		t.AddNote("%d error(s): ReCkpt_E reduces time overhead by %.2f%% on average", e+1, stats.Mean(reds))
	}
	return t, nil
}

// Fig12 reproduces the checkpoint-frequency sweep: % time overhead of
// Ckpt_NE and ReCkpt_NE w.r.t. NoCkpt for 25/50/75/100 checkpoints.
func (r *Runner) Fig12(p Params) (*stats.Table, error) {
	counts := []int{25, 50, 75, 100}
	cols := []string{"bench"}
	for _, c := range counts {
		cols = append(cols, fmt.Sprintf("Ckpt %d", c), fmt.Sprintf("Re %d", c))
	}
	t := &stats.Table{
		Title: "Fig. 12: % execution time overhead vs number of checkpoints (w.r.t. NoCkpt)",
		Cols:  cols,
	}
	specs := []Spec{NoCkpt}
	for _, c := range counts {
		specs = append(specs,
			Spec{Ckpt: true, NumCkpts: c},
			Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, NumCkpts: c})
	}
	if err := r.warm(p, specs...); err != nil {
		return nil, err
	}
	perCount := make([][]float64, len(counts))
	for _, name := range BenchNames() {
		base, err := r.Baseline(name, p)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for i, c := range counts {
			ck := Spec{Ckpt: true, NumCkpts: c}
			re := Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, NumCkpts: c}
			rc, err := r.Run(name, p, ck)
			if err != nil {
				return nil, err
			}
			rr, err := r.Run(name, p, re)
			if err != nil {
				return nil, err
			}
			oc := stats.OverheadPct(float64(rc.Cycles), float64(base.Cycles))
			or := stats.OverheadPct(float64(rr.Cycles), float64(base.Cycles))
			perCount[i] = append(perCount[i], stats.ReductionPct(oc, or))
			row = append(row, stats.Pct(oc), stats.Pct(or))
		}
		t.AddRow(row...)
	}
	for i, c := range counts {
		t.AddNote("%d checkpoints: ReCkpt_NE reduces time overhead by %.2f%% on average", c, stats.Mean(perCount[i]))
	}
	return t, nil
}

// Fig13 reproduces the coordinated-local study: execution time of the four
// local configurations normalised to their global counterparts.
func (r *Runner) Fig13(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 13: normalized execution time of local configurations (w.r.t. global counterparts)",
		Cols:  []string{"bench", "Ckpt_NE,Loc", "Ckpt_E,Loc", "ReCkpt_NE,Loc", "ReCkpt_E,Loc"},
	}
	pairs := [][2]Spec{
		{CkptNELoc, CkptNE},
		{CkptELoc, CkptE},
		{ReCkptNELoc, ReCkptNE},
		{ReCkptELoc, ReCkptE},
	}
	var specs []Spec
	for _, pair := range pairs {
		specs = append(specs, pair[0], pair[1])
	}
	if err := r.warm(p, specs...); err != nil {
		return nil, err
	}
	for _, name := range BenchNames() {
		row := []string{name}
		for _, pair := range pairs {
			loc, err := r.Run(name, p, pair[0])
			if err != nil {
				return nil, err
			}
			glob, err := r.Run(name, p, pair[1])
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", float64(loc.Cycles)/float64(glob.Cycles)))
		}
		t.AddRow(row...)
	}
	t.AddNote("y < 1 means coordinated-local checkpointing beats global (paper §V-E)")
	return t, nil
}

// Scalability reproduces §V-D4: checkpointing overhead and ReCkpt_NE
// reductions for 8-, 16- and 32-threaded executions.
func (r *Runner) Scalability(class Params) (*stats.Table, error) {
	threadCounts := []int{8, 16, 32}
	cols := []string{"bench"}
	for _, tc := range threadCounts {
		cols = append(cols, fmt.Sprintf("ovh@%d", tc), fmt.Sprintf("red@%d", tc), fmt.Sprintf("edp@%d", tc))
	}
	t := &stats.Table{
		Title: "Sec. V-D4: scalability — Ckpt_NE overhead, ReCkpt_NE time-overhead reduction and EDP reduction",
		Cols:  cols,
	}
	var jobs []Job
	for _, tc := range threadCounts {
		p := Params{Threads: tc, Class: class.Class}
		for _, name := range BenchNames() {
			for _, s := range []Spec{NoCkpt, CkptNE, ReCkptNE} {
				jobs = append(jobs, Job{Bench: name, Params: p, Spec: s})
			}
		}
	}
	if _, err := r.RunAll(jobs); err != nil {
		return nil, err
	}
	for _, name := range BenchNames() {
		row := []string{name}
		for _, tc := range threadCounts {
			p := Params{Threads: tc, Class: class.Class}
			base, err := r.Baseline(name, p)
			if err != nil {
				return nil, err
			}
			rc, err := r.Run(name, p, CkptNE)
			if err != nil {
				return nil, err
			}
			rr, err := r.Run(name, p, ReCkptNE)
			if err != nil {
				return nil, err
			}
			oc := stats.OverheadPct(float64(rc.Cycles), float64(base.Cycles))
			or := stats.OverheadPct(float64(rr.Cycles), float64(base.Cycles))
			edp := stats.ReductionPct(rc.EDP(), rr.EDP())
			row = append(row, stats.Pct(oc), stats.Pct(stats.ReductionPct(oc, or)), stats.Pct(edp))
		}
		t.AddRow(row...)
	}
	return t, nil
}
