package bench

import (
	"acr/internal/sim"
	"acr/internal/workloads"
)

// RunObserved executes benchmark benchName under spec with observers
// attached to the machine's event stream.
//
// Observers cannot attach through Run: checkpoint-period calibration
// (Runner.run) may execute a configuration several times before its fixed
// point converges, so an observer there would see the concatenation of
// calibration attempts. RunObserved instead obtains the memoised, calibrated
// Result first, then re-executes exactly once with the realised period and
// ROI echoed in that Result. The simulator is deterministic, so the replay
// is bit-identical to the cached run — the observers see the single
// converged execution, and the returned Result equals Run's.
//
// The runner's Lifecycle is not fired: it is a RunAll hook.
func (r *Runner) RunObserved(benchName string, p Params, spec Spec, obs ...sim.Observer) (sim.Result, error) {
	j := Job{Bench: benchName, Params: p, Spec: spec}
	bench, err := workloads.ByName(benchName)
	if err != nil {
		return sim.Result{}, err
	}
	if !spec.Ckpt {
		return r.execute(bench, j, 0, 0, obs...)
	}
	calibrated, err := r.Run(benchName, p, spec)
	if err != nil {
		return sim.Result{}, err
	}
	return r.execute(bench, j, calibrated.PeriodCycles, calibrated.ROIStartCycles, obs...)
}
