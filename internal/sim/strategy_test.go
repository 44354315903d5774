package sim

import (
	"testing"

	"acr/internal/ckpt"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/prog"
)

// autoSiteKernel carries one ASSOC site of each static class per thread:
// a short chain (under the dynamic threshold), a dead-value pure chain past
// the threshold (boostable), and a chain past the boost ceiling (prunable).
// Each site re-stores to a fixed per-thread address every iteration, so the
// previous iteration's value is the omission candidate at each interval's
// first store.
func autoSiteKernel() *prog.Program {
	b := prog.New("autosites")
	arr := b.Data(2 * 4)
	const (
		rShort isa.Reg = 3
		rMed   isa.Reg = 4
		rBig   isa.Reg = 5
		rAddr  isa.Reg = 6
		rIter  isa.Reg = 20
		rEnd   isa.Reg = 21
	)
	b.OpI(isa.MULI, rAddr, prog.RegTID, 4)
	b.OpI(isa.ADDI, rAddr, rAddr, arr)
	b.LoopConst(rIter, rEnd, 40, func() {
		// Short chain: length 2, the dynamic policy handles it.
		b.Li(rShort, 7)
		b.OpI(isa.ADDI, rShort, rShort, 35)
		b.StAssoc(rShort, rAddr, 0)
		// Medium chain: length 15 > threshold 10, value dead after the
		// store, statically replay-safe — the auto pass boosts it.
		b.Li(rMed, 1)
		for i := 0; i < 14; i++ {
			b.OpI(isa.ADDI, rMed, rMed, int64(i+1))
		}
		b.StAssoc(rMed, rAddr, 1)
		// Huge chain: length 45 > the 4× boost ceiling — pruned.
		b.Li(rBig, 1)
		for i := 0; i < 44; i++ {
			b.OpI(isa.XORI, rBig, rBig, int64(i+3))
		}
		b.StAssoc(rBig, rAddr, 2)
	})
	b.Halt()
	return b.MustBuild()
}

// strategyConfig builds a checkpointed configuration for the given strategy
// over the shared test kernel, with nCkpts boundaries.
func strategyConfig(t *testing.T, kind ckpt.Kind, nCkpts int64) Config {
	t.Helper()
	base, _ := baseline(t)
	cfg := DefaultConfig(tThreads)
	cfg.Checkpointing = true
	cfg.Strategy = kind
	cfg.PeriodCycles = base.Cycles / (nCkpts + 1)
	return cfg
}

// TestStrategyRecoveryInvisible extends the repository's core property to
// every strategy: with errors injected, the final memory image must be
// bit-identical to the error-free uncheckpointed run.
func TestStrategyRecoveryInvisible(t *testing.T) {
	base, want := baseline(t)
	for _, kind := range ckpt.Kinds() {
		cfg := strategyConfig(t, kind, tCkpts+2)
		cfg.Errors = fault.Uniform(2, base.Cycles, cfg.PeriodCycles/2)
		res, memv := runCfg(t, cfg)
		if res.Ckpt.Recoveries == 0 {
			t.Errorf("%v: no recovery triggered", kind)
		}
		if res.Strategy != kind.String() {
			t.Errorf("%v: Result.Strategy = %q", kind, res.Strategy)
		}
		checkSameMem(t, memv, want, kind.String())
	}
}

// TestMultiCheckpointRollback is the paper's Fig. 2 regression: a detection
// latency spanning more than one checkpoint interval must roll back past
// the newest snapshot(s) to an older retained one and replay every crossed
// log. The tiered strategy retains four checkpoints, so a latency of ~2.5
// periods both validates and forces a depth ≥ 2 roll-back.
func TestMultiCheckpointRollback(t *testing.T) {
	base, want := baseline(t)
	cfg := strategyConfig(t, ckpt.KindTiered, 8)
	cfg.Errors = fault.Uniform(1, base.Cycles*2/3, cfg.PeriodCycles*5/2)
	res, memv := runCfg(t, cfg)
	if res.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Ckpt.Recoveries)
	}
	if res.Ckpt.MultiSnapshotRollbacks == 0 {
		t.Error("rollback did not span multiple snapshots")
	}
	if res.Ckpt.MaxRollbackDepth < 2 {
		t.Errorf("max rollback depth = %d, want ≥ 2 (latency spans ≥ 2 intervals)",
			res.Ckpt.MaxRollbackDepth)
	}
	checkSameMem(t, memv, want, "multi-checkpoint rollback")
}

// TestDeepLatencyRejectedAtRetentionTwo: the same 2.5-period latency that
// the tiered strategy tolerates must fail validation for retention-2
// strategies (the bound of paper §II-A generalised to the retained count).
func TestDeepLatencyRejectedAtRetentionTwo(t *testing.T) {
	base, _ := baseline(t)
	cfg := strategyConfig(t, ckpt.KindFull, 8)
	cfg.Errors = fault.Uniform(1, base.Cycles*2/3, cfg.PeriodCycles*5/2)
	if _, err := New(cfg, testKernel(tThreads, tPer, tIters)); err == nil {
		t.Error("2.5-period detection latency must be rejected with two retained checkpoints")
	}
}

// TestStrategyCostProfiles asserts each strategy's distinguishing cost
// signature over one workload and period, so the bench matrix's dimensions
// are known to measure real mechanisms rather than label noise.
func TestStrategyCostProfiles(t *testing.T) {
	results := map[ckpt.Kind]Result{}
	for _, kind := range ckpt.Kinds() {
		res, memv := runCfg(t, strategyConfig(t, kind, 8))
		_, want := baseline(t)
		checkSameMem(t, memv, want, kind.String())
		results[kind] = res
	}

	full, amn := results[ckpt.KindFull], results[ckpt.KindAmnesic]
	diff, tier, auto := results[ckpt.KindDifferential], results[ckpt.KindTiered], results[ckpt.KindAuto]

	if full.Ckpt.OmittedWords != 0 || full.Ckpt.DeltaWords != 0 || full.Ckpt.FastLogWords != 0 {
		t.Errorf("full profile polluted: %+v", full.Ckpt)
	}
	if amn.Ckpt.OmittedWords == 0 {
		t.Error("amnesic omitted nothing")
	}
	if amn.Ckpt.LoggedWords >= full.Ckpt.LoggedWords {
		t.Errorf("amnesic logged %d ≥ full's %d", amn.Ckpt.LoggedWords, full.Ckpt.LoggedWords)
	}
	if diff.Ckpt.DeltaWords == 0 || diff.Ckpt.LoggedWords != diff.Ckpt.DeltaWords {
		t.Errorf("differential delta accounting wrong: %+v", diff.Ckpt)
	}
	if diff.Ckpt.OmittedWords != 0 {
		t.Errorf("differential is not amnesic: %+v", diff.Ckpt)
	}
	if tier.Ckpt.FastLogWords == 0 || tier.Ckpt.DemotedWords == 0 {
		t.Errorf("tiered fast-tier accounting missing: %+v", tier.Ckpt)
	}
	if tier.Ckpt.FastLogWords != 2*tier.Ckpt.LoggedWords {
		t.Errorf("tiered fast words = %d, want 2 per logged value (%d): %+v",
			tier.Ckpt.FastLogWords, tier.Ckpt.LoggedWords, tier.Ckpt)
	}
	if auto.Ckpt.OmittedWords == 0 {
		t.Error("auto strategy omitted nothing")
	}
	if amn.AddrMap.PrunedAssocs != 0 || amn.AddrMap.BoostedAssocs != 0 {
		t.Errorf("plain amnesic applied a site plan: %+v", amn.AddrMap)
	}
}

// TestAutoStrategyPrunesAndBoosts exercises the auto pass's two levers on a
// kernel built to have all three site classes: a short chain (left to the
// dynamic policy), a verified dead-value chain past the dynamic threshold
// (boosted — amnesic alone cannot omit it), and a chain past the boost
// ceiling (pruned before any AddrMap work).
func TestAutoStrategyPrunesAndBoosts(t *testing.T) {
	build := func() *prog.Program { return autoSiteKernel() }

	ref, err := New(DefaultConfig(2), build())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := memWords(ref, build().DataWords)

	run := func(kind ckpt.Kind) Result {
		// The period spans many iterations: the toy kernel's arch-state
		// flush dominates shorter intervals and would age every record
		// out before its next-interval lookup.
		cfg := DefaultConfig(2)
		cfg.Checkpointing = true
		cfg.Strategy = kind
		cfg.PeriodCycles = refRes.Cycles / 2
		cfg.Errors = fault.Uniform(1, refRes.Cycles/2, cfg.PeriodCycles/2)
		m, err := New(cfg, build())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkSameMem(t, memWords(m, build().DataWords), want, kind.String())
		return res
	}

	amn := run(ckpt.KindAmnesic)
	auto := run(ckpt.KindAuto)
	if auto.AddrMap.BoostedAssocs == 0 {
		t.Errorf("no site boosted: %+v", auto.AddrMap)
	}
	if auto.AddrMap.PrunedAssocs == 0 {
		t.Errorf("no site pruned: %+v", auto.AddrMap)
	}
	if auto.Ckpt.OmittedWords <= amn.Ckpt.OmittedWords {
		t.Errorf("auto omitted %d ≤ amnesic's %d: the boosted site bought nothing",
			auto.Ckpt.OmittedWords, amn.Ckpt.OmittedWords)
	}
	if auto.AddrMap.SliceTooLong >= amn.AddrMap.SliceTooLong {
		t.Errorf("auto still burned %d over-threshold compiles (amnesic: %d); pruning bought nothing",
			auto.AddrMap.SliceTooLong, amn.AddrMap.SliceTooLong)
	}
}

// TestStrategyConfigValidation pins the composition rules of the strategy
// dimension.
func TestStrategyConfigValidation(t *testing.T) {
	p := testKernel(2, 8, 2)
	build := func(mut func(*Config)) error {
		cfg := DefaultConfig(2)
		cfg.Checkpointing = true
		cfg.PeriodCycles = 1000
		mut(&cfg)
		_, err := New(cfg, p)
		return err
	}
	if err := build(func(c *Config) { c.Strategy = ckpt.KindDifferential; c.Mode = ckpt.Local }); err == nil {
		t.Error("differential + Local must be rejected (global-only strategy)")
	}
	if err := build(func(c *Config) { c.Strategy = ckpt.KindTiered; c.Mode = ckpt.Local }); err == nil {
		t.Error("tiered + Local must be rejected (global-only strategy)")
	}
	if err := build(func(c *Config) { c.Strategy = ckpt.KindTiered; c.Checkpointing = false; c.PeriodCycles = 0 }); err == nil {
		t.Error("a non-default strategy without checkpointing must be rejected")
	}
	if err := build(func(c *Config) { c.Strategy = ckpt.KindAuto }); err != nil {
		t.Errorf("auto implies amnesic and must validate: %v", err)
	}
	if err := build(func(c *Config) { c.Strategy = ckpt.KindAuto; c.Mode = ckpt.Local }); err != nil {
		t.Errorf("auto + Local is a supported composition: %v", err)
	}
}
