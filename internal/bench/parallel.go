package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"acr/internal/sim"
)

// Job names one cell of an experiment grid: a benchmark at a scale under a
// configuration.
type Job struct {
	Bench  string
	Params Params
	Spec   Spec
}

func (j Job) key() runKey {
	return runKey{j.Bench, j.Params.Threads, j.Params.Class.Name, j.Spec}
}

// JobReport records how one RunAll job executed. QueueWait is the time the
// job sat behind other jobs before a worker picked it up; Wall is the time
// inside the (memoised) Run call; Shared marks jobs whose cache entry
// already existed when they started — they rode on another job's execution
// (or an earlier RunAll) instead of paying for their own.
type JobReport struct {
	Job       Job
	QueueWait time.Duration
	Wall      time.Duration
	Shared    bool
}

// Reports returns the per-job reports accumulated across this runner's
// RunAll calls, in submission order within each call. Wall and QueueWait
// are host-time measurements: useful for driver diagnostics, never for
// simulated results.
func (r *Runner) Reports() []JobReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]JobReport(nil), r.reports...)
}

func (r *Runner) hasEntry(key runKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache[key] != nil
}

func (r *Runner) appendReports(reports []JobReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reports = append(r.reports, reports...)
}

// RunAll executes the jobs through the memoised cache with a worker pool
// bounded by Runner.Workers (GOMAXPROCS when zero). Each sim.Machine is
// fully independent, so the grid parallelises without coordination beyond
// the cache; results come back in job order and are bit-identical to a
// serial execution (the simulator is deterministic, and memoisation
// deduplicates shared cells such as the NoCkpt baselines). On failure the
// first failing job in job order is reported, independent of scheduling.
func (r *Runner) RunAll(jobs []Job) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	reports := make([]JobReport, len(jobs))
	start := time.Now() // queue-wait profiling only; never reaches results
	defer func() { r.appendReports(reports) }()

	runOne := func(i int) {
		j := jobs[i]
		t0 := time.Now() // per-job wall profiling only; never reaches results
		shared := r.hasEntry(j.key())
		token := r.beginJob(j)
		results[i], errs[i] = r.runWith(j, token)
		if token != nil {
			token.JobEnd(results[i], errs[i])
		}
		reports[i] = JobReport{
			Job:       j,
			QueueWait: t0.Sub(start),
			Wall:      time.Since(t0),
			Shared:    shared,
		}
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			runOne(i)
			if errs[i] != nil {
				return nil, fmt.Errorf("job %d (%s %v): %w", i, j.Bench, j.Spec, errs[i])
			}
		}
		return results, nil
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d (%s %v): %w", i, jobs[i].Bench, jobs[i].Spec, err)
		}
	}
	return results, nil
}
