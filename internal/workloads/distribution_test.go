package workloads

import (
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/sim"
)

// measureReduction runs bench amnesically at the given threshold in the
// steady-state regime (few checkpoints relative to iterations) and returns
// the overall checkpoint size reduction in percent.
func measureReduction(t *testing.T, name string, threshold int) float64 {
	t.Helper()
	bench, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tiny := Class{Name: "T", N: 32, Iters: 24}
	p, err := bench.Build(4, tiny)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.New(sim.DefaultConfig(4), p)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(4)
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.ACR = acr.Config{Threshold: threshold, MapCapacity: 4096 * 4}
	cfg.PeriodCycles = baseRes.Cycles / 7
	cfg.ROIStartCycles = int64(float64(baseRes.Cycles) * bench.WarmupFrac)
	p2, err := bench.Build(4, tiny)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg, p2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := res.Ckpt.LoggedWords + res.Ckpt.OmittedWords
	if total == 0 {
		t.Fatalf("%s: no checkpointable volume", name)
	}
	return 100 * float64(res.Ckpt.OmittedWords) / float64(total)
}

// TestTableIIStaircases pins the per-benchmark Slice-length behaviour the
// paper's Table II reports, as ordering constraints (not absolute values):
// every benchmark's reduction is monotone in the threshold, cg is the least
// recomputable at threshold 10 and jumps sharply at 20, is is the most
// recomputable at small thresholds.
func TestTableIIStaircases(t *testing.T) {
	if testing.Short() {
		t.Skip("workload characterisation test")
	}
	at10 := map[string]float64{}
	for _, name := range Names() {
		r10 := measureReduction(t, name, 10)
		r30 := measureReduction(t, name, 30)
		if r30+2 < r10 { // small tolerance for boundary noise
			t.Errorf("%s: reduction fell from %.1f to %.1f when threshold rose 10→30", name, r10, r30)
		}
		at10[name] = r10
	}
	// cg must be the least recomputable at threshold 10 (paper: 6.99%).
	for name, v := range at10 {
		if name != "cg" && v < at10["cg"] {
			t.Errorf("cg (%.1f%%) should be the least recomputable at threshold 10, but %s has %.1f%%",
				at10["cg"], name, v)
		}
	}
	// is must be the most recomputable (paper: 97.39% at threshold 10).
	for name, v := range at10 {
		if name != "is" && v > at10["is"] {
			t.Errorf("is (%.1f%%) should be the most recomputable at threshold 10, but %s has %.1f%%",
				at10["is"], name, v)
		}
	}
	// cg's signature jump at threshold 20 (paper: 6.99% → 67.06%).
	cg20 := measureReduction(t, "cg", 20)
	if cg20 < at10["cg"]*3 {
		t.Errorf("cg should jump sharply at threshold 20: %.1f%% → %.1f%%", at10["cg"], cg20)
	}
}

// TestThresholdFiveIsSpecial pins the paper's footnote: at threshold 10
// nearly all of is's values are recomputable, which is why the evaluation
// conservatively drops is to threshold 5.
func TestThresholdFiveIsSpecial(t *testing.T) {
	if testing.Short() {
		t.Skip("workload characterisation test")
	}
	r5 := measureReduction(t, "is", 5)
	r10 := measureReduction(t, "is", 10)
	if r10 <= r5 {
		t.Errorf("is at threshold 10 (%.1f%%) should exceed threshold 5 (%.1f%%)", r10, r5)
	}
	if r5 < 40 {
		t.Errorf("is at threshold 5 should still omit heavily (got %.1f%%)", r5)
	}
}
