package bench

import (
	"fmt"

	"acr/internal/stats"
)

// Ablations beyond the paper's figures, exercising the design choices
// DESIGN.md calls out: the Slice-selection policy (threshold vs the
// cost-based alternative of §III-A), the AddrMap capacity bound (§III-C),
// the error-detection latency assumption (§II-A), and the
// recomputation-aware checkpoint placement left to future work
// (§V-D1/§V-D3).

// AblationPolicy compares the paper's greedy threshold against the
// cost-based Slice selection on checkpoint size and time overhead.
func (r *Runner) AblationPolicy(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation: Slice selection policy — greedy threshold (paper) vs cost-based (§III-A sketch)",
		Cols: []string{"bench", "thr size-red%", "cost size-red%",
			"thr time-ovh%", "cost time-ovh%"},
	}
	costSpec := ReCkptNE
	costSpec.CostPolicy = true
	g, err := r.grid(p, NoCkpt, ReCkptNE, costSpec)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		base, thr, cost := g[i][0], g[i][1], g[i][2]
		to, _ := sizeReduction(thr)
		co, _ := sizeReduction(cost)
		t.AddRow(name, stats.Pct(to), stats.Pct(co),
			stats.Pct(timeOvh(thr, base)), stats.Pct(timeOvh(cost, base)))
	}
	t.AddNote("the cost policy embeds every Slice whose recomputation is cheaper than the avoided memory traffic")
	return t, nil
}

// AblationAddrMap sweeps the AddrMap capacity (records per machine) and
// reports the checkpoint size reduction, exposing the bound of §III-C: the
// number of omittable values is limited by how many associations the
// on-chip buffer can retain.
func (r *Runner) AblationAddrMap(p Params) (*stats.Table, error) {
	caps := []int{64, 256, 1024, 4096 * p.Threads}
	cols := []string{"bench"}
	specs := make([]Spec, len(caps))
	for k, c := range caps {
		cols = append(cols, fmt.Sprintf("%d", c))
		specs[k] = ReCkptNE
		specs[k].MapCapacity = c
	}
	t := &stats.Table{
		Title: "Ablation: checkpoint size reduction (%) vs AddrMap capacity (records)",
		Cols:  cols,
	}
	g, err := r.grid(p, specs...)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		row := []string{name}
		for k := range caps {
			overall, _ := sizeReduction(g[i][k])
			row = append(row, stats.Pct(overall))
		}
		t.AddRow(row...)
	}
	t.AddNote("a too-small AddrMap cannot retain enough <address, Slice> records to cover the interval's unique stores (§III-C)")
	return t, nil
}

// AblationDetect sweeps the error-detection latency (as a fraction of the
// checkpoint period) and reports the time overhead of ReCkpt_E: a longer
// lag invalidates the newest checkpoint more often, forcing deeper
// roll-backs (Fig. 2) and longer waste.
func (r *Runner) AblationDetect(p Params) (*stats.Table, error) {
	fracs := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	cols := []string{"bench"}
	specs := []Spec{NoCkpt}
	for _, f := range fracs {
		cols = append(cols, fmt.Sprintf("%.2f", f))
		spec := ReCkptE
		spec.DetectFrac = f
		specs = append(specs, spec)
	}
	t := &stats.Table{
		Title: "Ablation: ReCkpt_E time overhead (%) vs detection latency (fraction of period)",
		Cols:  cols,
	}
	g, err := r.grid(p, specs...)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		row := []string{name}
		for _, res := range g[i][1:] {
			row = append(row, stats.Pct(timeOvh(res, g[i][0])))
		}
		t.AddRow(row...)
	}
	t.AddNote("latency ≤ period is the assumption that lets two retained checkpoints suffice (§II-A)")
	return t, nil
}

// AblationAdaptive compares uniform checkpoint placement (the paper's
// setup) against the recomputation-aware placement of §V-D1/§V-D3's
// future-work remark.
func (r *Runner) AblationAdaptive(p Params) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation: uniform vs recomputation-aware checkpoint placement (ReCkpt_NE)",
		Cols: []string{"bench", "uniform ckpts", "adaptive ckpts",
			"uniform ovh%", "adaptive ovh%", "uniform red%", "adaptive red%"},
	}
	adaSpec := ReCkptNE
	adaSpec.Adaptive = true
	g, err := r.grid(p, NoCkpt, ReCkptNE, adaSpec)
	if err != nil {
		return nil, err
	}
	for i, name := range BenchNames() {
		base, uni, ada := g[i][0], g[i][1], g[i][2]
		uo, _ := sizeReduction(uni)
		ao, _ := sizeReduction(ada)
		t.AddRow(name,
			fmt.Sprintf("%d", uni.Ckpt.Checkpoints), fmt.Sprintf("%d", ada.Ckpt.Checkpoints),
			stats.Pct(timeOvh(uni, base)), stats.Pct(timeOvh(ada, base)),
			stats.Pct(uo), stats.Pct(ao))
	}
	t.AddNote("adaptive placement defers boundaries while recomputation is absorbing the would-be checkpoint")
	return t, nil
}
