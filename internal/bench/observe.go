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
// A runner with a Lifecycle attached additionally registers the observed
// job: the lifecycle's observers join the replay (seeing exactly the
// converged execution) and JobEnd receives the replayed Result.
func (r *Runner) RunObserved(benchName string, p Params, spec Spec, obs ...sim.Observer) (res sim.Result, err error) {
	j := Job{Bench: benchName, Params: p, Spec: spec}
	bench, berr := workloads.ByName(benchName)
	if berr != nil {
		return sim.Result{}, berr
	}
	if token := r.beginJob(j); token != nil {
		obs = append(append([]sim.Observer(nil), token.Observers()...), obs...)
		defer func() { token.JobEnd(res, err) }()
	}
	if !spec.Ckpt {
		return r.execute(bench, j, 0, 0, obs...)
	}
	calibrated, cerr := r.Run(benchName, p, spec)
	if cerr != nil {
		return sim.Result{}, cerr
	}
	return r.execute(bench, j, calibrated.PeriodCycles, calibrated.ROIStartCycles, obs...)
}
