package telemetry

import (
	"sort"
	"strconv"

	"acr/internal/ckpt"
	"acr/internal/sim"
)

// Cycle-domain histogram buckets shared by the stall/wait metrics. The
// ranges span from a bare handler invocation to multi-period recovery
// stalls on large machines.
var stallBuckets = []float64{
	100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
}

// Collector implements sim.Observer: it folds the machine's event stream
// into the metrics registry as the run progresses, and ObserveResult
// finalises the run-level aggregates (cache hierarchy, checkpoint volumes,
// AddrMap behaviour, energy breakdown) from the Result. Collection is
// strictly one-way — the Collector never touches machine state.
type Collector struct {
	reg *Registry

	checkpoints  *Family
	loggedWords  *Family
	omittedWords *Family
	ckptStall    *Family
	defers       *Family
	errors       *Family
	recoveries   *Family
	recStall     *Family
	recRestored  *Family
	recRecomp    *Family
	barrierWaits *Family
	barrierWait  *Family
	barrierHist  *Family
}

// NewCollector returns a collector registering its event-driven families in
// reg. Run-level families are registered by ObserveResult.
func NewCollector(reg *Registry) *Collector {
	c := &Collector{reg: reg}
	c.checkpoints = reg.Counter("acr_sim_checkpoints_total",
		"Checkpoints established (including warm-up boundaries before the ROI).")
	c.loggedWords = reg.Counter("acr_sim_checkpoint_logged_words_total",
		"Old values conventionally logged, summed over closing intervals.")
	c.omittedWords = reg.Counter("acr_sim_checkpoint_omitted_words_total",
		"Old values amnesically omitted, summed over closing intervals.")
	c.ckptStall = reg.Histogram("acr_sim_checkpoint_stall_cycles",
		"Establishment stall per checkpoint (start to last group release).", stallBuckets)
	c.defers = reg.Counter("acr_sim_defers_total",
		"Checkpoint boundaries deferred by adaptive placement.")
	c.errors = reg.Counter("acr_sim_errors_total", "Errors detected.")
	c.recoveries = reg.Counter("acr_sim_recoveries_total", "Recoveries performed.")
	c.recStall = reg.Histogram("acr_sim_recovery_stall_cycles",
		"Recovery wall-cycles per recovery (detection to group release).", stallBuckets)
	c.recRestored = reg.Counter("acr_sim_recovery_restored_words_total",
		"Memory words written during roll-backs.")
	c.recRecomp = reg.Counter("acr_sim_recovery_recomputed_values_total",
		"Values regenerated along Slices during roll-backs.")
	c.barrierWaits = reg.Counter("acr_sim_barrier_waits_total",
		"Barrier participations per core.", "core")
	c.barrierWait = reg.Counter("acr_sim_barrier_wait_cycles_total",
		"Cycles spent waiting at barriers per core (incl. sync cost).", "core")
	c.barrierHist = reg.Histogram("acr_sim_barrier_wait_cycles",
		"Per-participation barrier wait distribution.", stallBuckets)
	return c
}

// OnEvent implements sim.Observer.
func (c *Collector) OnEvent(e sim.Event) {
	switch e.Kind {
	case sim.EvCheckpoint:
		c.checkpoints.Add(1)
		c.loggedWords.Add(float64(e.Detail))
		c.omittedWords.Add(float64(e.Aux))
		c.ckptStall.Observe(float64(e.Dur))
	case sim.EvDefer:
		c.defers.Add(1)
	case sim.EvError:
		c.errors.Add(1)
	case sim.EvRecovery:
		c.recoveries.Add(1)
		c.recStall.Observe(float64(e.Dur))
		c.recRestored.Add(float64(e.Detail))
		c.recRecomp.Add(float64(e.Aux))
	case sim.EvBarrier:
		core := strconv.Itoa(int(e.Core))
		c.barrierWaits.With(core).Add(1)
		c.barrierWait.With(core).Add(float64(e.Dur))
		c.barrierHist.Observe(float64(e.Dur))
	}
}

// ObserveResult folds a completed run's aggregates into the registry:
// run-level gauges, per-core per-level cache activity, directory traffic,
// checkpoint/AddrMap statistics, the Slice replay-length histogram and the
// energy-event breakdown.
func (c *Collector) ObserveResult(res sim.Result) {
	reg := c.reg

	run := func(name, help string, v float64) {
		reg.Gauge(name, help).Set(v)
	}
	run("acr_run_cycles", "Makespan of the run in cycles.", float64(res.Cycles))
	run("acr_run_instructions", "Retired instructions.", float64(res.Instrs))
	run("acr_run_energy_pj", "Total energy including leakage.", res.EnergyPJ)
	run("acr_run_dynamic_pj", "Dynamic (event) energy.", res.DynamicPJ)
	run("acr_run_edp_pj_cycles", "Energy-delay product.", res.EDP())
	run("acr_run_barrier_episodes", "Barrier episodes released.", float64(res.Barriers))
	run("acr_run_period_cycles", "Realised checkpoint period (0 = no checkpointing).",
		float64(res.PeriodCycles))
	run("acr_run_roi_start_cycles", "Region-of-interest start.", float64(res.ROIStartCycles))
	run("acr_run_timeline_dropped", "Events discarded by the timeline ring buffer.",
		float64(res.TimelineDropped))
	if res.Strategy != "" {
		// Info-style gauge: constant 1, the label carries the resolved
		// checkpoint strategy so dashboards can slice runs by scheme.
		reg.Gauge("acr_run_strategy_info",
			"Resolved checkpoint strategy of this run (label-only, value is 1).",
			"strategy").With(res.Strategy).Set(1)
	}

	hits := reg.Counter("acr_cache_hits_total", "Cache hits per core and level.", "core", "level")
	misses := reg.Counter("acr_cache_misses_total", "Cache misses per core and level.", "core", "level")
	wbs := reg.Counter("acr_cache_writebacks_total",
		"Dirty victims migrated to the next level down, per core and level.", "core", "level")
	fills := reg.Counter("acr_dram_fills_total", "Line fills from DRAM per core.", "core")
	for i, cs := range res.Mem.PerCore {
		core := strconv.Itoa(i)
		hits.With(core, "l1d").Add(float64(cs.L1D.Hits))
		hits.With(core, "l2").Add(float64(cs.L2.Hits))
		misses.With(core, "l1d").Add(float64(cs.L1D.Misses))
		misses.With(core, "l2").Add(float64(cs.L2.Misses))
		wbs.With(core, "l1d").Add(float64(cs.L1D.Writebacks))
		wbs.With(core, "l2").Add(float64(cs.L2.Writebacks))
		fills.With(core).Add(float64(cs.Fills))
	}
	reg.Counter("acr_directory_comm_edges_total",
		"Directory communication observations (coherence traffic).").Add(float64(res.Mem.CommEdges))
	reg.Counter("acr_directory_log_bit_sets_total",
		"First-store log-bit transitions.").Add(float64(res.Mem.LogBitSets))
	reg.Counter("acr_flushed_lines_total",
		"Dirty lines written back at checkpoint establishment.").Add(float64(res.Mem.FlushedLines))

	ck := res.Ckpt
	run("acr_ckpt_checkpoints", "Checkpoints inside the ROI.", float64(ck.Checkpoints))
	run("acr_ckpt_recoveries", "Recoveries performed.", float64(ck.Recoveries))
	run("acr_ckpt_logged_words", "ROI words conventionally logged.", float64(ck.LoggedWords))
	run("acr_ckpt_omitted_words", "ROI words amnesically omitted.", float64(ck.OmittedWords))
	run("acr_ckpt_restored_words", "Words restored during roll-backs.", float64(ck.RestoredWords))
	run("acr_ckpt_recomputed_words", "Amnesic subset of restored words.", float64(ck.RecomputedWords))
	run("acr_ckpt_delta_words", "Dirty words sealed into differential checkpoints.", float64(ck.DeltaWords))
	run("acr_ckpt_fast_log_words", "Words logged to the fast tier (tiered strategy).", float64(ck.FastLogWords))
	run("acr_ckpt_demoted_words", "Fast-tier words demoted to DRAM.", float64(ck.DemotedWords))
	run("acr_ckpt_multi_snapshot_rollbacks", "Recoveries that crossed more than one checkpoint.",
		float64(ck.MultiSnapshotRollbacks))
	run("acr_ckpt_max_rollback_depth", "Deepest rollback in retained checkpoints.",
		float64(ck.MaxRollbackDepth))

	replay := reg.Histogram("acr_recovery_replay_length_instructions",
		"Slice replay length per recomputed value.", replayBuckets())
	for i, n := range ck.ReplayLens {
		if n == 0 {
			continue
		}
		// Import each substrate bucket at its upper bound (overflow at
		// one past the largest bound).
		v := float64(ckpt.ReplayLenBuckets[len(ckpt.ReplayLenBuckets)-1] + 1)
		if i < len(ckpt.ReplayLenBuckets) {
			v = float64(ckpt.ReplayLenBuckets[i])
		}
		replay.With().ObserveN(v, uint64(n))
	}

	am := res.AddrMap
	run("acr_addrmap_inserts", "Successful associations.", float64(am.Inserts))
	run("acr_addrmap_rejected", "Associations dropped: map full.", float64(am.Rejected))
	run("acr_addrmap_slice_too_long", "Associations dropped: Slice over cap.", float64(am.SliceTooLong))
	run("acr_addrmap_lookups", "Omission-decision lookups.", float64(am.Lookups))
	run("acr_addrmap_hits", "Lookups whose record recomputes the old value.", float64(am.Hits))
	run("acr_addrmap_peak_occupancy", "Peak records held.", float64(am.PeakOccupancy))
	run("acr_addrmap_peak_input_words", "Peak buffered input words.", float64(am.PeakInputWords))
	run("acr_addrmap_pruned_assocs", "Associations skipped by the auto strategy's site plan.",
		float64(am.PrunedAssocs))
	run("acr_addrmap_boosted_assocs", "Associations compiled under a boosted site cap.",
		float64(am.BoostedAssocs))

	energy := reg.Counter("acr_energy_events_total",
		"Chargeable architectural events by kind.", "event")
	names := make([]string, 0, len(res.EnergyEvents))
	// Map order is randomised; sort the keys so series are created, and
	// so exported, in one order.
	for name := range res.EnergyEvents {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		energy.With(name).Add(float64(res.EnergyEvents[name]))
	}
}

// SchedCollector exports the engine's dispatch diagnostics — the
// quantum-length histogram and the coalescing counters. It is a separate
// observer from Collector because sim.SchedStats describe the engine, not
// the simulated machine: they move with quantum coalescing while Result
// does not, and profiles recorded without a SchedCollector attached
// (notably the fastpath oracle fixture) must stay byte-identical.
type SchedCollector struct{ reg *Registry }

// NewSchedCollector returns a collector writing into reg when a run
// completes.
func NewSchedCollector(reg *Registry) *SchedCollector { return &SchedCollector{reg: reg} }

// OnEvent implements sim.Observer; SchedCollector only consumes the
// end-of-run diagnostics.
func (s *SchedCollector) OnEvent(sim.Event) {}

// ObserveSchedStats implements sim.SchedStatsObserver.
func (s *SchedCollector) ObserveSchedStats(st sim.SchedStats) {
	hist := s.reg.Histogram("acr_sched_quantum_instrs",
		"Serial-engine quantum lengths in retired instructions (power-of-two buckets).",
		quantumBuckets())
	for i, n := range st.QuantumHist {
		if n == 0 {
			continue
		}
		// Bucket i of the machine histogram holds lengths in
		// [2^(i-1), 2^i - 1] (bucket 0: empty quanta); import it at its
		// inclusive upper bound, which is exactly a registry bucket edge.
		hist.With().ObserveN(float64(int64(1)<<uint(i)-1), uint64(n))
	}
	s.reg.Gauge("acr_sched_quantum_avg_instrs",
		"Average serial quantum length in instructions (span instructions / spans).").
		Set(st.AvgQuantum())
	s.reg.Gauge("acr_sched_spans",
		"Quanta dispatched by the serial engine.").Set(float64(st.Spans))
	s.reg.Gauge("acr_sched_eager_calls",
		"Coalescing eager executions that advanced a peer core.").Set(float64(st.EagerCalls))
	s.reg.Gauge("acr_sched_eager_instrs",
		"Peer instructions retired eagerly by quantum coalescing.").Set(float64(st.EagerInstrs))
}

// quantumBuckets are the registry-side edges mirroring the machine's
// power-of-two quantum histogram: 2^i - 1 for i in [0, 15).
func quantumBuckets() []float64 {
	out := make([]float64, 15)
	for i := range out {
		out[i] = float64(int64(1)<<uint(i) - 1)
	}
	return out
}

func replayBuckets() []float64 {
	out := make([]float64, len(ckpt.ReplayLenBuckets))
	for i, b := range ckpt.ReplayLenBuckets {
		out[i] = float64(b)
	}
	return out
}
