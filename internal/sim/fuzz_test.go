package sim

import (
	"math/rand"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/prog"
)

// randomProgram generates a structured random multithreaded kernel:
// iterations of phases, each phase a loop over a partition that loads from a
// random array, applies a random arithmetic chain, and stores (associated)
// into a random array, with barriers between phases. This is the
// machine-level fuzz harness: whatever program comes out, checkpointing and
// recovery must be semantically invisible.
func randomProgram(rng *rand.Rand, threads int) *prog.Program {
	b := prog.New("fuzz")
	const n = 24
	nArrays := 2 + rng.Intn(3)
	arrays := make([]int64, nArrays)
	for i := range arrays {
		arrays[i] = b.Data(threads * n)
	}
	iters := 3 + rng.Intn(4)
	phases := 1 + rng.Intn(3)

	// Base registers for each array: r10+i.
	for i, arr := range arrays {
		b.OpI(isa.MULI, isa.Reg(10+i), prog.RegTID, n)
		b.OpI(isa.ADDI, isa.Reg(10+i), isa.Reg(10+i), arr)
	}
	ops := []isa.Op{isa.ADDI, isa.MULI, isa.XORI, isa.SHRI, isa.ORI, isa.ANDI}

	b.LoopConst(20, 21, int64(iters), func() {
		for ph := 0; ph < phases; ph++ {
			src := isa.Reg(10 + rng.Intn(nArrays))
			dst := isa.Reg(10 + rng.Intn(nArrays))
			depth := 1 + rng.Intn(14)
			chain := make([]isa.Instr, depth)
			for k := range chain {
				chain[k] = isa.Instr{
					Op: ops[rng.Intn(len(ops))], Rd: 3, Rs: 3,
					Imm: int64(rng.Intn(1000) + 1),
				}
			}
			b.LoopConst(1, 2, n, func() {
				b.Op3(isa.ADD, 4, src, 1)
				b.Ld(3, 4, 0)
				for _, in := range chain {
					b.Emit(in)
				}
				b.Op3(isa.ADD, 4, dst, 1)
				b.StAssoc(3, 4, 0)
			})
			if rng.Intn(2) == 0 {
				b.Barrier()
			}
		}
		b.Barrier()
	})
	b.Halt()
	return b.MustBuild()
}

// TestFuzzRecoveryInvisible is the repository's core end-to-end property
// (checkRecoveryInvisible) over 25 fixed-seed random programs.
func TestFuzzRecoveryInvisible(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		threads := 2 + rng.Intn(3)
		build := func() *prog.Program {
			return randomProgram(rand.New(rand.NewSource(int64(500+trial))), threads)
		}
		checkRecoveryInvisible(t, "trial "+itoa(trial), rng, threads, build)
	}
}

// byteSource is a rand.Source that spends one fuzz byte per draw, spread
// over all 63 bits by a multiplicative hash so that both Intn's mask (low
// bits) and its modulus (high bits) depend on it; an exhausted input reads
// as zeros. A short input thus steers every decision its reader makes.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	var b byte
	if len(s.data) > 0 {
		b, s.data = s.data[0], s.data[1:]
	}
	return int64(uint64(b) * 0x9E3779B97F4A7C15 >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzRecoveryInvisible is TestFuzzRecoveryInvisible under coverage
// guidance: config bytes draw the thread count, checkpoint period, error
// count, embedding policy and placement; program bytes drive
// randomProgram, so whatever the bytes, the kernel is barrier-correct.
func FuzzRecoveryInvisible(f *testing.F) {
	f.Fuzz(func(t *testing.T, config, program []byte) {
		rng := rand.New(&byteSource{data: config})
		threads := 2 + rng.Intn(3)
		build := func() *prog.Program {
			return randomProgram(rand.New(&byteSource{data: program}), threads)
		}
		checkRecoveryInvisible(t, "fuzz", rng, threads, build)
	})
}

// checkRecoveryInvisible runs the program build makes under random
// checkpoint periods and error schedules drawn from rng, in every
// configuration (global/local × every strategy), and requires the final
// memory image to be bit-identical to the error-free uncheckpointed run.
// Each amnesic-family configuration also runs with full Slice tracking
// (trackAll), which must reproduce the filtered run exactly, so the
// relevance filter, the depth cap and the auto site plan that feeds
// them never change a result.
func checkRecoveryInvisible(t *testing.T, label string, rng *rand.Rand, threads int, build func() *prog.Program) {
	t.Helper()
	ref, err := New(DefaultConfig(threads), build())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := memWords(ref, build().DataWords)

	nCkpts := int64(3 + rng.Intn(8))
	period := refRes.Cycles / (nCkpts + 1)
	if period < 10 {
		period = 10
	}
	errs := rng.Intn(3)

	for _, mode := range []ckpt.Mode{ckpt.Global, ckpt.Local} {
		for _, kind := range ckpt.Kinds() {
			if kind.GlobalOnly() && mode == ckpt.Local {
				continue
			}
			cfg := DefaultConfig(threads)
			cfg.Checkpointing = true
			cfg.Mode = mode
			cfg.PeriodCycles = period
			cfg.Strategy = kind
			if kind.Amnesic() {
				cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096}
				if rng.Intn(2) == 0 {
					cfg.ACR.Policy = acr.PolicyCost
				}
				cfg.AdaptivePlacement = rng.Intn(2) == 0
			}
			if errs > 0 {
				cfg.Errors = fault.Uniform(errs, refRes.Cycles, period/2)
			}
			run := label + " mode=" + mode.String() + " strategy=" + kind.String()
			res, got := checkTrackAllInvisible(t, run, cfg, build())
			if errs > 0 && res.Ckpt.Recoveries == 0 {
				// An error may land after completion for very
				// short runs; tolerate but note.
				t.Logf("%s: no recovery triggered (run too short)", run)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s errs=%d: memory differs at %d: %d vs %d",
						run, errs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFuzzDeterministicReplay: the same configuration twice produces
// identical cycle counts, energies and statistics.
func TestFuzzDeterministicReplay(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		build := func() *prog.Program {
			return randomProgram(rand.New(rand.NewSource(int64(42+trial))), 3)
		}
		run := func() Result {
			cfg := DefaultConfig(3)
			cfg.Checkpointing = true
			cfg.Strategy = ckpt.KindAmnesic
			cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 1024}
			cfg.PeriodCycles = 5000
			cfg.Errors = fault.Uniform(1, 40000, 2000)
			m, err := New(cfg, build())
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Cycles != b.Cycles || a.EnergyPJ != b.EnergyPJ ||
			a.Ckpt != b.Ckpt || a.Instrs != b.Instrs {
			t.Fatalf("trial %d: non-deterministic replay:\n%+v\n%+v", trial, a, b)
		}
	}
}

func TestAdaptivePlacementStillCorrect(t *testing.T) {
	_, base := baseline(t)
	cfg := errConfig(t, true, tCkpts, 2)
	cfg.AdaptivePlacement = true
	res, memv := runCfg(t, cfg)
	if res.Ckpt.Recoveries != 2 {
		t.Fatalf("recoveries = %d", res.Ckpt.Recoveries)
	}
	checkSameMem(t, memv, base, "adaptive")
}

func TestCostPolicyStillCorrect(t *testing.T) {
	_, base := baseline(t)
	cfg := errConfig(t, true, tCkpts, 1)
	cfg.ACR.Policy = acr.PolicyCost
	res, memv := runCfg(t, cfg)
	if res.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Ckpt.Recoveries)
	}
	checkSameMem(t, memv, base, "cost policy")
	if res.Ckpt.OmittedWords == 0 {
		t.Error("cost policy omitted nothing")
	}
}
