package sim

import (
	"errors"
	"math/rand"
	"testing"

	"acr/internal/ckpt"
	"acr/internal/fault"
	"acr/internal/mem"
)

// TestConfigErrorThroughNew pins the machine-scale error contract: asking for
// more cores than the memory plane supports surfaces a typed
// *mem.ConfigError through sim.New — it must never panic, and the error must
// be matchable with errors.As so callers (acrsim, bench sweeps) can report
// the limit instead of crashing. Before multi-word core sets this was a
// panic at 65 cores; now 65 constructs fine and only > mem.MaxCores errors.
func TestConfigErrorThroughNew(t *testing.T) {
	p := testKernel(4, 8, 1)

	cfg := DefaultConfig(mem.MaxCores + 1)
	_, err := New(cfg, p)
	if err == nil {
		t.Fatalf("New accepted %d cores (limit %d)", mem.MaxCores+1, mem.MaxCores)
	}
	var ce *mem.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("New(%d cores) returned %T (%v), want *mem.ConfigError", mem.MaxCores+1, err, err)
	}
	if ce.Reason == "" {
		t.Error("ConfigError carries no reason")
	}
}

// TestLegacyLimitLifted proves the old 64-core ceiling is gone: a 65-core
// machine — one past the single-word bitset — constructs and runs an
// amnesic-checkpointed kernel to completion.
func TestLegacyLimitLifted(t *testing.T) {
	const cores = 65
	p := testKernel(cores, 8, 2)
	base := DefaultConfig(cores)
	ref, _, _ := runSnapshot(t, base, p)

	cfg := base
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.PeriodCycles = ref.Cycles / 3
	m, err := New(cfg, p)
	if err != nil {
		t.Fatalf("65-core machine failed to construct: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ckpt.Checkpoints == 0 {
		t.Error("65-core run took no checkpoints")
	}
}

// TestScaleBitIdentityFuzz extends the bit-identity fuzz oracle to 128- and
// 256-core machines: for each scale, every checkpoint strategy with the
// quantum coalescer on must reproduce the flat scheduler bit-for-bit — the
// full Result and every data-memory word — and so must full Slice tracking
// (trackAll) for the amnesic-family strategies. This is the acceptance gate
// for the memory plane and the grouped scheduler queue at scale: any
// directory or pick-order bug shows up as a diverging cycle count or memory
// word here.
func TestScaleBitIdentityFuzz(t *testing.T) {
	coreChoices := []int{128, 256}
	if testing.Short() {
		coreChoices = []int{128}
	}
	rng := rand.New(rand.NewSource(17))

	for _, cores := range coreChoices {
		perThread := 6
		iters := 2
		p := testKernel(cores, perThread, iters)

		base := DefaultConfig(cores)
		ref, refMem, _ := runSnapshot(t, base, p)

		// Coalescing off must match the default-on serial reference
		// exactly: the coalescer only changes wall clock.
		off := base
		off.noCoalesce = true
		ores, omem, _ := runSnapshot(t, off, p)
		checkBitIdentical(t, "coalesce-off@"+itoa(cores), ref, ores, refMem, omem)

		for _, kind := range ckpt.Kinds() {
			cfg := base
			cfg.Checkpointing = true
			cfg.Strategy = kind
			cfg.PeriodCycles = ref.Cycles / int64(3+rng.Intn(2))
			if rng.Intn(2) == 1 {
				cfg.Errors = fault.Uniform(1, ref.Cycles, cfg.PeriodCycles/2)
			}
			want, wantMem, _ := runSnapshot(t, cfg, p)

			noco := cfg
			noco.noCoalesce = true
			nres, nmem, _ := runSnapshot(t, noco, p)
			label := itoa(cores) + "/" + kind.String()
			checkBitIdentical(t, label+"/coalesce-off", want, nres, wantMem, nmem)

			checkTrackAll(t, label, cfg, p, want, wantMem)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCoalesceBitIdentitySmall crosses the coalescer toggle with the
// package's standard checkpoint/error scenarios at the default small scale,
// so the seam is pinned on the recovery-heavy paths too (rollback, replay,
// coordinated-local groups, adaptive placement, conventional logging under
// errors), not only the scale kernels.
func TestCoalesceBitIdentitySmall(t *testing.T) {
	localAmnesic := errConfig(t, true, tCkpts, 2)
	localAmnesic.Mode = ckpt.Local
	adaptive := errConfig(t, true, tCkpts, 2)
	adaptive.AdaptivePlacement = true
	adaptive.RecordTimeline = true
	fullErr := errConfig(t, false, tCkpts, 2)
	fullErr.RecordTimeline = true
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"ckpt-full", ckptConfig(t, false, tCkpts)},
		{"ckpt-amnesic", ckptConfig(t, true, tCkpts)},
		{"err-amnesic", errConfig(t, true, tCkpts, 2)},
		{"err-amnesic-local", localAmnesic},
		{"err-amnesic-adaptive", adaptive},
		{"err-full", fullErr},
	}
	for _, sc := range scenarios {
		p := testKernel(tThreads, tPer, tIters)
		off := sc.cfg
		off.noCoalesce = true
		want, wantMem, _ := runSnapshot(t, off, p)
		got, gotMem, _ := runSnapshot(t, sc.cfg, p)
		checkBitIdentical(t, sc.name, want, got, wantMem, gotMem)
		if sc.cfg.Errors != nil && got.Ckpt.Recoveries == 0 {
			t.Errorf("%s: no recovery ran, so the rollback path went unchecked", sc.name)
		}
	}
}

// TestQuantumCoalescingLengthensSpans pins the perf claim behind the
// coalescer: with it on, the scheduler's average serial quantum on a
// communicating many-core kernel must beat both the coalesce-off baseline
// and the paper's 2.7-instruction average, and the eager engine must have
// actually retired instructions. The histogram must account for every span.
func TestQuantumCoalescingLengthensSpans(t *testing.T) {
	const cores = 128
	p := testKernel(cores, 6, 2)

	run := func(coalesce bool) SchedStats {
		cfg := DefaultConfig(cores)
		cfg.noCoalesce = !coalesce
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.SchedStats()
	}

	off := run(false)
	on := run(true)

	if on.EagerCalls == 0 || on.EagerInstrs == 0 {
		t.Fatalf("coalescer never fired: %+v", on)
	}
	if off.EagerInstrs != 0 {
		t.Fatalf("coalesce-off run executed eagerly: %+v", off)
	}
	if on.AvgQuantum() <= off.AvgQuantum() {
		t.Errorf("coalescing did not lengthen quanta: on %.2f, off %.2f",
			on.AvgQuantum(), off.AvgQuantum())
	}
	if on.AvgQuantum() <= 2.7 {
		t.Errorf("average serial quantum %.2f, want > 2.7", on.AvgQuantum())
	}
	var hist int64
	for _, n := range on.QuantumHist {
		hist += n
	}
	if hist != on.Spans {
		t.Errorf("quantum histogram accounts for %d spans, want %d", hist, on.Spans)
	}
}
