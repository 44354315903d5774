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

// grid runs specs × the eight paper benchmarks through one RunAll and
// returns the results indexed [bench][spec], benchmarks in BenchNames
// order. The simulations — the actual cost — run on the worker pool; each
// generator then reads its cells from the one result.
func (r *Runner) grid(p Params, specs ...Spec) ([][]sim.Result, error) {
	names := BenchNames()
	jobs := make([]Job, 0, len(specs)*len(names))
	for _, name := range names {
		for _, s := range specs {
			jobs = append(jobs, Job{Bench: name, Params: p, Spec: s})
		}
	}
	res, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(names))
	for i := range out {
		out[i] = res[i*len(specs) : (i+1)*len(specs)]
	}
	return out, nil
}

// timeOvh is the percentage execution-time overhead of res w.r.t. base.
func timeOvh(res, base sim.Result) float64 {
	return stats.OverheadPct(float64(res.Cycles), float64(base.Cycles))
}

// figOverheads builds Fig. 6 (time) or Fig. 7 (energy): the overhead of
// Ckpt_NE, Ckpt_E, ReCkpt_NE, ReCkpt_E w.r.t. NoCkpt, plus the reduction
// ReCkpt achieves over Ckpt.
func (r *Runner) figOverheads(p Params, energy bool) (*stats.Table, error) {
	kind, fig, ovhOf := "time", "Fig. 6", timeOvh
	if energy {
		kind, fig = "energy", "Fig. 7"
		ovhOf = func(res, base sim.Result) float64 { return stats.OverheadPct(res.EnergyPJ, base.EnergyPJ) }
	}
	t := &stats.Table{
		Title: fmt.Sprintf("%s: %% %s overhead of checkpointing and recovery (w.r.t. NoCkpt)", fig, kind),
		Cols: []string{"bench", "Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E",
			"redNE%", "redE%"},
	}
	g, err := r.grid(p, NoCkpt, CkptNE, CkptE, ReCkptNE, ReCkptE)
	if err != nil {
		return nil, err
	}
	var redNE, redE []float64
	for i, name := range BenchNames() {
		var ovh [4]float64
		for k := range ovh {
			ovh[k] = ovhOf(g[i][k+1], g[i][0])
		}
		rNE := stats.ReductionPct(ovh[0], ovh[2])
		rE := stats.ReductionPct(ovh[1], ovh[3])
		redNE = append(redNE, rNE)
		redE = append(redE, rE)
		t.AddRow(name,
			stats.Pct(ovh[0]), stats.Pct(ovh[1]),
			stats.Pct(ovh[2]), stats.Pct(ovh[3]),
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
	// NoCkpt is not read here; every checkpointed run calibrates against it.
	g, err := r.grid(p, NoCkpt, CkptNE, ReCkptNE, CkptE, ReCkptE)
	if err != nil {
		return nil, err
	}
	var ne, e []float64
	for i, name := range BenchNames() {
		row := g[i]
		vNE := stats.ReductionPct(row[1].EDP(), row[2].EDP())
		vE := stats.ReductionPct(row[3].EDP(), row[4].EDP())
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
	g, err := r.grid(p, ReCkptNE)
	if err != nil {
		return nil, err
	}
	var all []float64
	for i, name := range BenchNames() {
		overall, max := sizeReduction(g[i][0])
		all = append(all, overall)
		t.AddRow(name, stats.Pct(overall), stats.Pct(max))
	}
	t.AddRow("avg", stats.Pct(stats.Mean(all)), "")
	t.AddNote("Max = reduction of the largest single checkpoint (memory-footprint proxy, §V-C)")
	return t, nil
}

// thresholds is the Slice-length threshold sweep of Table II and Fig. 10.
var thresholds = []int{10, 20, 30, 40, 50}

// thresholdSpecs returns ReCkpt_NE at each sweep threshold.
func thresholdSpecs() []Spec {
	specs := make([]Spec, len(thresholds))
	for i, th := range thresholds {
		specs[i] = ReCkptNE
		specs[i].Threshold = th
	}
	return specs
}

// TableII reproduces the Slice-length threshold sweep: total checkpoint
// size reduction under ReCkpt_NE for thresholds 10..50.
func (r *Runner) TableII(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Table II: total checkpoint size reduction (%) w.r.t. Slice length threshold",
		Cols:  []string{"bench", "10", "20", "30", "40", "50"},
	}
	g, err := r.grid(p, thresholdSpecs()...)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		row := []string{name}
		for _, res := range g[i] {
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
	var jobs []Job
	for _, spec := range thresholdSpecs() {
		jobs = append(jobs, Job{Bench: benchName, Params: p, Spec: spec})
	}
	res, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	cols := []string{"interval"}
	series := make([][]float64, len(thresholds))
	maxLen := 0
	for i, th := range thresholds {
		cols = append(cols, fmt.Sprintf("thr=%d", th))
		for _, iv := range res[i].Intervals {
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
	return r.pairSweep(p, "Fig. 11: % execution time overhead vs number of errors (w.r.t. NoCkpt)",
		"%de", "%d error(s): ReCkpt_E reduces time overhead by %.2f%% on average",
		[]int{1, 2, 3, 4, 5}, func(e int) Spec { return Spec{Ckpt: true, Errors: e} })
}

// Fig12 reproduces the checkpoint-frequency sweep: % time overhead of
// Ckpt_NE and ReCkpt_NE w.r.t. NoCkpt for 25/50/75/100 checkpoints.
func (r *Runner) Fig12(p Params) (*stats.Table, error) {
	return r.pairSweep(p, "Fig. 12: % execution time overhead vs number of checkpoints (w.r.t. NoCkpt)",
		"%d", "%d checkpoints: ReCkpt_NE reduces time overhead by %.2f%% on average",
		[]int{25, 50, 75, 100}, func(c int) Spec { return Spec{Ckpt: true, NumCkpts: c} })
}

// pairSweep renders the body Figs. 11 and 12 share: for each x, the % time
// overhead w.r.t. NoCkpt of the conventional spec ckptAt(x) and of its
// amnesic counterpart, in a "Ckpt <col>"/"Re <col>" column pair, and a note
// giving ReCkpt's average overhead reduction at x.
func (r *Runner) pairSweep(p Params, title, col, note string, xs []int, ckptAt func(x int) Spec) (*stats.Table, error) {
	cols := []string{"bench"}
	specs := []Spec{NoCkpt}
	for _, x := range xs {
		cols = append(cols, fmt.Sprintf("Ckpt "+col, x), fmt.Sprintf("Re "+col, x))
		re := ckptAt(x)
		re.Strategy = ckpt.KindAmnesic
		specs = append(specs, ckptAt(x), re)
	}
	t := &stats.Table{Title: title, Cols: cols}
	g, err := r.grid(p, specs...)
	if err != nil {
		return nil, err
	}
	reds := make([][]float64, len(xs))
	for i, name := range BenchNames() {
		row := []string{name}
		for k := range xs {
			ck := timeOvh(g[i][1+2*k], g[i][0])
			re := timeOvh(g[i][2+2*k], g[i][0])
			reds[k] = append(reds[k], stats.ReductionPct(ck, re))
			row = append(row, stats.Pct(ck), stats.Pct(re))
		}
		t.AddRow(row...)
	}
	for k, x := range xs {
		t.AddNote(note, x, stats.Mean(reds[k]))
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
	// (local, global) pairs, one per column.
	g, err := r.grid(p,
		CkptNELoc, CkptNE,
		CkptELoc, CkptE,
		ReCkptNELoc, ReCkptNE,
		ReCkptELoc, ReCkptE)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		row := []string{name}
		for k := 0; k < len(g[i]); k += 2 {
			row = append(row, fmt.Sprintf("%.3f", float64(g[i][k].Cycles)/float64(g[i][k+1].Cycles)))
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
	res, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	names := BenchNames()
	for i, name := range names {
		row := []string{name}
		for k := range threadCounts {
			cell := res[3*(k*len(names)+i):]
			base, rc, rr := cell[0], cell[1], cell[2]
			oc, or := timeOvh(rc, base), timeOvh(rr, base)
			edp := stats.ReductionPct(rc.EDP(), rr.EDP())
			row = append(row, stats.Pct(oc), stats.Pct(stats.ReductionPct(oc, or)), stats.Pct(edp))
		}
		t.AddRow(row...)
	}
	return t, nil
}
