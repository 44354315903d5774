// Command perfbench is the repository benchmark. It runs one workload — a
// fixed grid of class-S simulator jobs — through bench.Runner the way
// acrsim and acrbench drive it, in passes, for a given number of seconds.
// Every simulated result is checked against the results recorded in
// expected.json, and the last line of standard output is one JSON object
// with the medians over passes. README.md documents the workloads, the
// metrics and the layer each metric belongs to.
//
// Untraced run (end-to-end metrics):
//
//	bash perfbench/run.sh --workload paper-acr --seed 1 --seconds 30 --trace 0
//
// Traced run (per-layer metrics): --trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"acr/internal/bench"
	"acr/internal/sim"
	"acr/internal/workloads"
)

func main() {
	// The simulator and the benchmark are serial. With a second P the
	// garbage collector's idle workers borrow the host's other CPU, whose
	// availability depends on other tenants, and set-up times and peak RSS
	// then scatter about twice as widely. One P keeps the collector's work
	// on the measured thread, where wall_s counts it.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "permutes job order in every pass and seeds the layer drivers")
	seconds := fs.Float64("seconds", 30, "measurement time in seconds (at least 3 passes; 2 traced ones with -trace 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	record := fs.String("record", "", "re-record every workload's expected results into this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	var want map[string]expected
	if err == nil {
		want, err = loadExpected()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &benchmark{w: w, jobs: w.jobs(), want: want, seed: *seed, counts: make(map[string]counts)}
	var m map[string]metric
	if *trace == 1 {
		m, err = b.tracedRun(*seconds, *out)
	} else {
		m, err = b.untracedRun(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Println("FAILED", f)
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	line, err := json.Marshal(result{
		Correct:   b.failed == 0 && len(b.countDiffs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// benchmark runs one workload's passes and accumulates their checks.
type benchmark struct {
	w    workload
	jobs []bench.Job
	want map[string]expected
	seed int64
	tr   *tracer // set while a traced pass runs

	attempted, failed int
	failures          []string
	// counts holds each job's work counts from the first traced pass;
	// countDiffs lists later passes that disagreed, notes the differences
	// from the recorded counts.
	counts     map[string]counts
	countDiffs []string
	notes      []string
}

// setupReps is how many times a pass repeats its set-up phase: one set-up
// takes only 30-150 ms, too little to time steadily once.
const setupReps = 4

// passStats is what one pass measured.
type passStats struct {
	setups       []float64 // seconds, one per set-up repetition
	wall         float64   // seconds
	build, newS  float64
	instrs       int64
	jobSeconds   []float64
	instrsByKind map[string]int64

	// Traced passes only.
	runCalls    float64 // Runner.RunAll and Runner.Baseline spans
	calib       float64
	machineRun  float64
	runByKind   map[string]float64
	allocMB     float64
	gcCycles    float64
	results     map[string]sim.Result // converged results by job key
	baselines   map[string]sim.Result
	execsByJob  map[string]int
	runAllByJob map[string]float64
	profile     []byte // gzipped CPU profile of the job phase
}

// execCounter is a bench.Lifecycle that counts the machine executions a
// RunAll job performs: every execution hands its scheduler statistics to
// the observers attached for the job, calibration attempts included.
type execCounter struct{ n int }

func (c *execCounter) JobBegin(bench.Job, string, bool) bench.JobObservation { return c }
func (c *execCounter) Observers() []sim.Observer                             { return []sim.Observer{c} }
func (c *execCounter) JobEnd(sim.Result, error)                              {}
func (c *execCounter) OnEvent(sim.Event)                                     {}
func (c *execCounter) ObserveSchedStats(sim.SchedStats)                      { c.n++ }

// protect runs f, turning a panic into an error so one job cannot end the
// run.
func protect[T any](f func() (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

func kindName(s bench.Spec) string {
	if !s.Ckpt {
		return "nockpt"
	}
	return s.Kind().String()
}

// order permutes the jobs for pass n; the permutation depends only on the
// seed and the pass number.
func (b *benchmark) order(n int) []bench.Job {
	rng := rand.New(rand.NewSource(b.seed*7919 + int64(n)))
	out := make([]bench.Job, len(b.jobs))
	for i, p := range rng.Perm(len(b.jobs)) {
		out[i] = b.jobs[p]
	}
	return out
}

func newRunner() *bench.Runner {
	r := bench.NewRunner()
	r.Workers = 1
	r.SimWorkers = 1
	return r
}

// failFunc records that job j failed in the current pass; checkFunc
// compares a result a call returned for job key with the recorded one.
type (
	failFunc  func(j bench.Job, format string, args ...any)
	checkFunc func(j bench.Job, key, call string, res sim.Result)
)

// pass runs every job once through a fresh Runner: first the set-up phase
// setupReps times (build each program and construct its machine, each
// repetition one setup_s sample), then the jobs themselves (timed as
// wall_s). A traced pass records spans, profiles the job phase, and
// afterwards replays every job once more to attribute its time (see
// README.md).
func (b *benchmark) pass(n int, traced bool, prof *attribution) (passStats, error) {
	st := passStats{instrsByKind: make(map[string]int64)}
	order := b.order(n)
	failed := make(map[string]bool)
	fail := failFunc(func(j bench.Job, format string, args ...any) {
		key := j.KeyString()
		if !failed[key] {
			failed[key] = true
			b.failures = append(b.failures, fmt.Sprintf("pass %d job %s: %s", n, key, fmt.Sprintf(format, args...)))
		}
	})
	check := checkFunc(func(j bench.Job, key, call string, res sim.Result) {
		if d := b.want[key].Result.diff(outcomeOf(res)); d != "" {
			fail(j, "%s result differs from expected.json: %s", call, d)
		}
	})
	var tr *tracer
	if traced {
		tr = b.tr
		tr.pass = n
	}

	start := time.Now()
	root := tr.open("pass", -1, start)
	for rep := 0; rep < setupReps; rep++ {
		var build, newS float64
		setupID := tr.open("setup", root, time.Now())
		for _, j := range order {
			// Untimed: each machine is built on a collected heap, so no
			// collection lands inside the timed calls and the set-up's
			// memory peak is one machine, not however many the collector
			// let accumulate.
			runtime.GC()
			_, bs, ns := b.setupJob(j, tr, setupID, fail)
			build, newS = build+bs, newS+ns
		}
		tr.close(setupID, time.Now())
		st.setups = append(st.setups, build+newS)
		st.build += build / setupReps
		st.newS += newS / setupReps
	}

	runtime.GC()
	r := newRunner()
	var counter execCounter
	var profBuf bytes.Buffer
	var before runtime.MemStats
	if traced {
		r.Lifecycle = &counter
		st.results = make(map[string]sim.Result)
		st.baselines = make(map[string]sim.Result)
		st.execsByJob = make(map[string]int)
		st.runAllByJob = make(map[string]float64)
		st.runByKind = make(map[string]float64)
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			return st, fmt.Errorf("cpu profile: %w", err)
		}
	}
	runStart := time.Now()
	runID := tr.open("run", root, runStart)
	for _, j := range order {
		key := j.KeyString()
		// Every job starts from a collected heap, so its garbage, its
		// share of collection work and its memory peak do not depend on
		// the jobs the permutation put before it. The collection counts
		// toward wall_s.
		runtime.GC()
		t0 := time.Now()
		var res sim.Result
		var err error
		if !traced {
			res, err = protect(func() (sim.Result, error) { return r.Run(j.Bench, j.Params, j.Spec) })
		} else {
			if j.Spec.Ckpt {
				// Run the baseline on its own first, so the RunAll span
				// covers only the job's own executions.
				bk := baselineJob(j).KeyString()
				base, err := protect(func() (sim.Result, error) { return r.Baseline(j.Bench, j.Params) })
				t1 := time.Now()
				tr.add("Runner.Baseline", runID, bk, t0, t1)
				st.runCalls += t1.Sub(t0).Seconds()
				if err != nil {
					fail(j, "baseline: %v", err)
				} else {
					check(j, bk, "Runner.Baseline", base)
					st.baselines[bk] = base
				}
				t0 = t1
			}
			counter.n = 0
			res, err = protect(func() (sim.Result, error) {
				rs, err := r.RunAll([]bench.Job{j})
				if err != nil {
					return sim.Result{}, err
				}
				return rs[0], nil
			})
			t1 := time.Now()
			tr.add("Runner.RunAll", runID, key, t0, t1)
			st.runCalls += t1.Sub(t0).Seconds()
			st.runAllByJob[key] = t1.Sub(t0).Seconds()
			if j.Spec.Ckpt {
				st.execsByJob[key] = counter.n
			}
		}
		st.jobSeconds = append(st.jobSeconds, time.Since(t0).Seconds())
		if err != nil {
			fail(j, "%v", err)
			continue
		}
		check(j, key, "Runner.Run", res)
		st.instrs += res.Instrs
		st.instrsByKind[kindName(j.Spec)] += res.Instrs
	}
	runEnd := time.Now()
	st.wall = runEnd.Sub(runStart).Seconds()
	tr.close(runID, runEnd)

	if traced {
		pprof.StopCPUProfile()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		st.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		st.gcCycles = float64(after.NumGC - before.NumGC)
		if err := prof.add(profBuf.Bytes()); err != nil {
			return st, err
		}
		st.profile = profBuf.Bytes()
		b.attribute(r, order, &st, tr, root, fail, check)
	}
	tr.close(root, time.Now())
	b.attempted += len(order)
	b.failed += len(failed)
	return st, nil
}

// setupJob builds job j's program and constructs its machine with the
// job's converged configuration. It returns the machine (nil on failure)
// and the seconds each step took.
func (b *benchmark) setupJob(j bench.Job, tr *tracer, parent int, fail failFunc) (m *sim.Machine, build, newS float64) {
	key := j.KeyString()
	want, ok := b.want[key]
	if !ok {
		fail(j, "no expected result recorded")
		return nil, 0, 0
	}
	k, err := workloads.ByName(j.Bench)
	if err != nil {
		fail(j, "%v", err)
		return nil, 0, 0
	}
	t0 := time.Now()
	p, err := k.Build(j.Params.Threads, j.Params.Class)
	t1 := time.Now()
	tr.add("Bench.Build", parent, key, t0, t1)
	if err != nil {
		fail(j, "build: %v", err)
		return nil, t1.Sub(t0).Seconds(), 0
	}
	cfg, err := machineConfig(j, want.Result)
	if err != nil {
		fail(j, "%v", err)
		return nil, t1.Sub(t0).Seconds(), 0
	}
	t1 = time.Now()
	m, err = sim.New(cfg, p)
	t2 := time.Now()
	tr.add("sim.New", parent, key, t1, t2)
	if err != nil {
		fail(j, "sim.New: %v", err)
		m = nil
	}
	return m, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
}

// attribute replays every job of a traced pass once more, outside the
// timed and profiled phase: checkpointed jobs through Runner.RunObserved
// (their converged execution, so Runner.Run minus it is the calibration
// cost), and every job on a machine of its own, whose scheduler counters
// and per-instruction time the per-layer metrics read.
func (b *benchmark) attribute(r *bench.Runner, order []bench.Job, st *passStats, tr *tracer, root int, fail failFunc, check checkFunc) {
	r.Lifecycle = nil
	id := tr.open("attribution", root, time.Now())
	for _, j := range order {
		key := j.KeyString()
		if j.Spec.Ckpt {
			t0 := time.Now()
			res, err := protect(func() (sim.Result, error) { return r.RunObserved(j.Bench, j.Params, j.Spec) })
			t1 := time.Now()
			tr.add("Runner.RunObserved", id, key, t0, t1)
			if err != nil {
				fail(j, "Runner.RunObserved: %v", err)
			} else {
				check(j, key, "Runner.RunObserved", res)
			}
			st.calib += st.runAllByJob[key] - t1.Sub(t0).Seconds()
		}
		m, _, _ := b.setupJob(j, tr, id, fail)
		if m == nil {
			continue
		}
		t0 := time.Now()
		res, err := protect(m.Run)
		t1 := time.Now()
		tr.add("Machine.Run", id, key, t0, t1)
		if err != nil {
			fail(j, "Machine.Run: %v", err)
			continue
		}
		check(j, key, "Machine.Run", res)
		st.machineRun += t1.Sub(t0).Seconds()
		st.runByKind[kindName(j.Spec)] += t1.Sub(t0).Seconds()
		st.results[key] = res
		b.noteCounts(j, countsOf(m.SchedStats(), st.execsByJob[key]))
	}
	tr.close(id, time.Now())
}

// noteCounts checks that a job's work counts repeat across traced passes,
// and notes once when they differ from the recorded ones.
func (b *benchmark) noteCounts(j bench.Job, c counts) {
	key := j.KeyString()
	first, seen := b.counts[key]
	if !seen {
		b.counts[key] = c
		if rec := b.want[key].Counts; rec != c {
			b.notes = append(b.notes, fmt.Sprintf("job %s: work counts %+v differ from recorded %+v", key, c, rec))
		}
		return
	}
	if first != c {
		b.countDiffs = append(b.countDiffs, key)
		b.failures = append(b.failures, fmt.Sprintf("job %s: work counts %+v did not repeat (first pass %+v)", key, c, first))
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// untracedRun measures passes until the time is up and reports the
// end-to-end metrics.
func (b *benchmark) untracedRun(seconds float64) (map[string]metric, error) {
	var wall, mips, setup, jobs []float64
	start := time.Now()
	for n := 0; n < 3 || time.Since(start).Seconds() < seconds; n++ {
		st, err := b.pass(n, false, nil)
		if err != nil {
			return nil, err
		}
		wall = append(wall, st.wall)
		mips = append(mips, float64(st.instrs)/st.wall/1e6)
		setup = append(setup, st.setups...)
		jobs = append(jobs, st.jobSeconds...)
	}
	fmt.Printf("workload %s seed %d: %d passes of %d jobs\n", b.w.name, b.seed, len(wall), len(b.jobs))
	fmt.Println("wall_s per pass:  ", describe(wall, "s"))
	fmt.Println("setup_s per set-up:", describe(setup, "s"))
	fmt.Println("sim_mips per pass:", describe(mips, "Minstr/s"))
	fmt.Println("Runner.Run per job:", describe(jobs, "s"))
	fmt.Printf("wall_s by pass: %.4f\n", wall)
	fmt.Printf("setup_s by set-up: %.4f\n", setup)
	return map[string]metric{
		"wall_s":      {median(wall), "s"},
		"sim_mips":    {median(mips), "Minstr/s"},
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {peakRSSMiB(), "MiB"},
	}, nil
}

// tracedRun alternates untraced and traced passes until the time is up,
// runs the layer drivers, writes spans and CPU profiles to outDir, and
// reports the per-layer metrics.
func (b *benchmark) tracedRun(seconds float64, outDir string) (map[string]metric, error) {
	b.tr = &tracer{t0: time.Now()}
	prof := newAttribution()
	var plain, traced []passStats
	start := time.Now()
	for n := 0; len(traced) < 2 || time.Since(start).Seconds() < seconds; n++ {
		st, err := b.pass(n, n%2 == 1, prof)
		if err != nil {
			return nil, err
		}
		if n%2 == 1 {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	passesDone := time.Since(start).Seconds()
	ld, err := newLayerDriver(b.w, b.seed)
	if err != nil {
		return nil, err
	}
	drivers, err := ld.run()
	if err != nil {
		return nil, err
	}
	fmt.Printf("passes took %.1f s, layer drivers %.1f s\n", passesDone, time.Since(start).Seconds()-passesDone)
	m := b.layerMetrics(plain, traced, prof, drivers)
	if err := b.writeTrace(outDir, m, traced); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d untraced and %d traced passes of %d jobs\n", b.w.name, b.seed, len(plain), len(traced), len(b.jobs))
	for _, side := range []struct {
		name   string
		passes []passStats
	}{{"untraced", plain}, {"traced", traced}} {
		walls := make([]float64, len(side.passes))
		for i, st := range side.passes {
			walls[i] = st.wall
		}
		fmt.Printf("%s job-phase seconds by pass: %.4f\n", side.name, walls)
	}
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

// layerMetrics computes the per-layer metrics: timings are medians over
// traced passes, work counts come from the converged results of the last
// traced pass (they repeat exactly; noteCounts checks it).
func (b *benchmark) layerMetrics(plain, traced []passStats, prof *attribution, drivers map[string]float64) map[string]metric {
	per := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(traced))
		for i, st := range traced {
			xs[i] = f(st)
		}
		return median(xs)
	}
	plainWall := make([]float64, len(plain))
	for i, st := range plain {
		plainWall[i] = st.wall
	}
	last := traced[len(traced)-1]
	m := make(map[string]metric)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// bench: the driver, its memo cache and the calibration loop.
	set("bench.calib_s", "s", per(func(s passStats) float64 { return s.calib }))
	var execs, ckptJobs float64
	for _, j := range b.jobs {
		if j.Spec.Ckpt {
			execs += float64(last.execsByJob[j.KeyString()])
			ckptJobs++
		}
	}
	set("bench.calib_execs", "count", ratio(execs, ckptJobs))
	set("bench.driver_s", "s", per(func(s passStats) float64 { return s.wall - s.runCalls }))

	set("workloads.build_s", "s", per(func(s passStats) float64 { return s.build }))

	set("sim.new_s", "s", per(func(s passStats) float64 { return s.newS }))
	set("sim.run_s", "s", per(func(s passStats) float64 { return s.machineRun }))
	for _, k := range []string{"nockpt", "amnesic", "full", "differential", "tiered"} {
		set("sim.ns_per_instr."+k, "ns", per(func(s passStats) float64 {
			return 1e9 * ratio(s.runByKind[k], float64(s.instrsByKind[k]))
		}))
	}

	var c struct {
		spans, spanInstrs, eager, barriers, instrs               float64
		l1Hit, l1Miss, l2Hit, l2Miss, comm, logBits, flushed     float64
		inserts, drops, lookups, hits, logged, omitted           float64
		checkpoints, recoveries, restored, delta, fastlog, ovhPc float64
		ovhJobs                                                  float64
	}
	for _, j := range b.jobs {
		key := j.KeyString()
		res := last.results[key]
		cn := b.counts[key]
		c.spans += float64(cn.Spans)
		c.spanInstrs += float64(cn.SpanInstrs)
		c.eager += float64(cn.EagerInstrs)
		c.barriers += float64(res.Barriers)
		c.instrs += float64(res.Instrs)
		for _, pc := range res.Mem.PerCore {
			c.l1Hit += float64(pc.L1D.Hits)
			c.l1Miss += float64(pc.L1D.Misses)
			c.l2Hit += float64(pc.L2.Hits)
			c.l2Miss += float64(pc.L2.Misses)
		}
		c.comm += float64(res.Mem.CommEdges)
		c.logBits += float64(res.Mem.LogBitSets)
		c.flushed += float64(res.Mem.FlushedLines)
		a := res.AddrMap
		c.inserts += float64(a.Inserts)
		c.drops += float64(a.Rejected + a.SliceTooLong + a.CostRejected + a.PrunedAssocs)
		c.lookups += float64(a.Lookups)
		c.hits += float64(a.Hits)
		k := res.Ckpt
		c.logged += float64(k.LoggedWords)
		c.omitted += float64(k.OmittedWords)
		c.checkpoints += float64(k.Checkpoints)
		c.recoveries += float64(k.Recoveries)
		c.restored += float64(k.RestoredWords)
		c.delta += float64(k.DeltaWords)
		c.fastlog += float64(k.FastLogWords)
		if j.Spec.Ckpt {
			if base, ok := last.baselines[baselineJob(j).KeyString()]; ok && base.Cycles > 0 {
				c.ovhPc += 100 * (float64(res.Cycles)/float64(base.Cycles) - 1)
				c.ovhJobs++
			}
		}
	}
	set("sim.sched_spans", "count", c.spans)
	set("sim.sched_avg_quantum", "instrs", ratio(c.spanInstrs, c.spans))
	set("sim.eager_instrs", "count", c.eager)
	set("sim.barriers", "count", c.barriers)
	set("sim_time_ovh_pct", "%", ratio(c.ovhPc, c.ovhJobs))
	set("cpu.instrs", "count", c.instrs)
	set("mem.l1_miss_ratio", "ratio", ratio(c.l1Miss, c.l1Hit+c.l1Miss))
	set("mem.l2_miss_ratio", "ratio", ratio(c.l2Miss, c.l2Hit+c.l2Miss))
	set("mem.comm_edges", "count", c.comm)
	set("mem.log_bit_sets", "count", c.logBits)
	set("mem.flushed_lines", "count", c.flushed)
	set("core.assoc_inserts", "count", c.inserts)
	set("core.assoc_drops", "count", c.drops)
	set("core.lookups", "count", c.lookups)
	set("core.hit_ratio", "ratio", ratio(c.hits, c.lookups))
	set("core.omit_ratio", "ratio", ratio(c.omitted, c.logged+c.omitted))
	set("ckpt.checkpoints", "count", c.checkpoints)
	set("ckpt.recoveries", "count", c.recoveries)
	set("ckpt.logged_words", "count", c.logged)
	set("ckpt.restored_words", "count", c.restored)
	set("ckpt.delta_words", "count", c.delta)
	set("ckpt.fastlog_words", "count", c.fastlog)

	for _, mod := range modules {
		name := mod + ".self_share"
		set(name, "%", prof.share(mod))
	}
	set("go.gc_share", "%", prof.gcShare())
	set("go.alloc_mb", "MiB", per(func(s passStats) float64 { return s.allocMB }))
	set("go.gc_cycles", "count", per(func(s passStats) float64 { return s.gcCycles }))

	set("trace.overhead_pct", "%", 100*(ratio(per(func(s passStats) float64 { return s.wall }), median(plainWall))-1))

	units := map[string]string{"_ns": "ns", "_us": "us"}
	for name, v := range drivers {
		set(name, units[name[strings.LastIndex(name, "_"):]], v)
	}
	return m
}

// writeTrace writes the spans, their per-name self time and the metrics to
// outDir, next to the CPU profile of each traced pass's job phase.
func (b *benchmark) writeTrace(outDir string, m map[string]metric, traced []passStats) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Metrics     map[string]metric  `json:"metrics"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []span             `json:"spans"`
	}{b.w.name, b.seed, m, b.tr.selfSeconds(), b.tr.spans}, "", " ")
	if err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := os.WriteFile(base+"-trace.json", data, 0o644); err != nil {
		return err
	}
	for i, st := range traced {
		if err := os.WriteFile(fmt.Sprintf("%s-cpu%d.pb.gz", base, i), st.profile, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("spans written to %s-trace.json, CPU profiles to %s-cpu*.pb.gz\n", base, base)
	return nil
}

// recordExpected runs every workload's jobs once on the serial interpreter
// and writes their results and work counts to path. Each job is also run
// on a machine built by machineConfig, which must reproduce the runner's
// result.
func recordExpected(path string) error {
	out := make(map[string]expected)
	for _, w := range allWorkloads {
		r := newRunner()
		var counter execCounter
		r.Lifecycle = &counter
		for _, j := range w.jobs() {
			key := j.KeyString()
			if j.Spec.Ckpt {
				base, err := r.Baseline(j.Bench, j.Params)
				if err != nil {
					return err
				}
				if _, ok := out[baselineJob(j).KeyString()]; !ok {
					out[baselineJob(j).KeyString()] = expected{Result: outcomeOf(base)}
				}
			}
			counter.n = 0
			rs, err := r.RunAll([]bench.Job{j})
			if err != nil {
				return err
			}
			execs := 0
			if j.Spec.Ckpt {
				execs = counter.n
			}
			want := outcomeOf(rs[0])
			k, err := workloads.ByName(j.Bench)
			if err != nil {
				return err
			}
			p, err := k.Build(j.Params.Threads, j.Params.Class)
			if err != nil {
				return err
			}
			cfg, err := machineConfig(j, want)
			if err != nil {
				return err
			}
			mach, err := sim.New(cfg, p)
			if err != nil {
				return err
			}
			res, err := mach.Run()
			if err != nil {
				return err
			}
			if d := want.diff(outcomeOf(res)); d != "" {
				return fmt.Errorf("job %s: machineConfig does not reproduce the runner's result: %s", key, d)
			}
			out[key] = expected{Result: want, Counts: countsOf(mach.SchedStats(), execs)}
			fmt.Fprintf(os.Stderr, "recorded %s\n", key)
		}
	}
	data, err := encodeExpected(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
