package bench

import (
	"fmt"

	"acr/internal/sim"
)

// Lifecycle observes RunAll's job execution; RunObserved does not fire it.
// The benchmark harness under perfbench/ implements it to count the
// machine executions each job's calibration performs. Hooks are
// driver-side only — they see host-time lifecycle transitions and may
// attach sim.Observers, but like every observer they must not feed
// anything back into simulated results: a runner with a Lifecycle attached
// returns bit-identical Results to one without (the simulator's
// observation invariant, enforced by TestLifecycleObservationInvariant).
//
// A checkpointed job may execute its machine several times while
// calibrating its period; the runner asks the job's JobObservation for
// observers once per execution, so an implementation can tell the
// converged (last) execution from earlier attempts.
type Lifecycle interface {
	// JobBegin is called when the driver starts working on a job. key is
	// the job's deterministic memoisation key (Job.KeyString); shared
	// reports that the job's cache cell already existed, so it will ride
	// on another execution instead of simulating. The returned
	// observation receives the job's completion; a nil return disables
	// observation for this job.
	JobBegin(j Job, key string, shared bool) JobObservation
}

// JobObservation is one observed job in flight.
type JobObservation interface {
	// Observers is called once per machine execution performed on
	// behalf of this job, calibration attempts included, and the
	// returned observers are attached to that execution alone. The last
	// call precedes the converged execution whose Result JobEnd
	// receives. Cache-shared jobs execute nothing, so Observers is
	// never called for them.
	Observers() []sim.Observer
	// JobEnd delivers the job's final result or error.
	JobEnd(res sim.Result, err error)
}

// KeyString renders the job's deterministic memoisation key as a stable,
// human-readable string: benchmark, scale, the paper configuration name,
// then every remaining Spec knob spelled explicitly. Two jobs share a
// KeyString exactly when they share a memo cache cell, so the string is
// usable as a cross-process result key (TestKeyStringCoversEverySpecField
// proves every Spec field reaches it).
func (j Job) KeyString() string {
	k := j.key()
	s := k.spec
	return fmt.Sprintf("%s/t%d/%s/%s/e%d-th%d-n%d-c%t-a%t-m%d-d%g",
		k.bench, k.threads, k.class, s.String(),
		s.Errors, s.Threshold, s.NumCkpts, s.CostPolicy, s.Adaptive,
		s.MapCapacity, s.DetectFrac)
}

// beginJob fires the runner's lifecycle hook for j, returning a nil
// observation when no lifecycle is attached.
func (r *Runner) beginJob(j Job) JobObservation {
	if r.Lifecycle == nil {
		return nil
	}
	return r.Lifecycle.JobBegin(j, j.KeyString(), r.hasEntry(j.key()))
}
