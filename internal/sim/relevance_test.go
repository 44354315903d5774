package sim

import (
	"math/rand"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/prog"
)

// checkTrackAllInvisible runs cfg on p, and for the amnesic-family
// strategies (the only ones that track Slices) also with full Slice
// tracking (trackAll: no relevance filter, no depth cap). The second run
// must match the first bit for bit: the full Result (AddrMap statistics
// included) and every data-memory word. It returns the first run's result
// and memory.
func checkTrackAllInvisible(t *testing.T, label string, cfg Config, p *prog.Program) (Result, []int64) {
	t.Helper()
	want, wantMem, _ := runSnapshot(t, cfg, p)
	checkTrackAll(t, label, cfg, p, want, wantMem)
	return want, wantMem
}

// checkTrackAll runs an amnesic-family cfg with trackAll and requires it to
// reproduce want and wantMem exactly. Other strategies build no tracker, so
// trackAll would only repeat their runs.
func checkTrackAll(t *testing.T, label string, cfg Config, p *prog.Program, want Result, wantMem []int64) {
	t.Helper()
	if !cfg.Strategy.Amnesic() {
		return
	}
	all := cfg
	all.trackAll = true
	res, mem, _ := runSnapshot(t, all, p)
	checkBitIdentical(t, label+"/trackAll", want, res, wantMem, mem)
}

// TestTrackAllThresholdSweep crosses the Table II Slice-length thresholds
// (10..50) with both embedding policies and both amnesic-family strategies
// on random programs with errors: the relevance filter and the depth cap
// (which follows the threshold, Cost.MaxLen and the auto plan's boosted
// caps) must leave every run bit-identical to full tracking.
func TestTrackAllThresholdSweep(t *testing.T) {
	const threads = 3
	for trial := 0; trial < 2; trial++ {
		build := func() *prog.Program {
			return randomProgram(rand.New(rand.NewSource(int64(900+trial))), threads)
		}
		ref, err := New(DefaultConfig(threads), build())
		if err != nil {
			t.Fatal(err)
		}
		refRes, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		period := refRes.Cycles / 5
		for _, th := range []int{10, 20, 30, 40, 50} {
			for _, kind := range []ckpt.Kind{ckpt.KindAmnesic, ckpt.KindAuto} {
				for _, policy := range []acr.Policy{acr.PolicyThreshold, acr.PolicyCost} {
					cfg := DefaultConfig(threads)
					cfg.Checkpointing = true
					cfg.PeriodCycles = period
					cfg.Strategy = kind
					cfg.ACR = acr.Config{Threshold: th, MapCapacity: 4096, Policy: policy}
					cfg.Errors = fault.Uniform(1, refRes.Cycles, period/2)
					label := "trial " + itoa(trial) + " threshold " + itoa(th) + " " + kind.String() + "/" + policy.String()
					checkTrackAllInvisible(t, label, cfg, build())
				}
			}
		}
	}
}
