package sim

import (
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/isa"
	"acr/internal/prog"
)

func iv(logged, omitted int64) ckpt.IntervalStat {
	return ckpt.IntervalStat{Logged: logged, Omitted: omitted}
}

// TestShouldDefer pins the adaptive-placement trigger of §V-D1: defer only
// with enough history, enough open-interval volume, and an omission ratio
// clearly above the historical average.
func TestShouldDefer(t *testing.T) {
	// 3 closed intervals, 50% average omission, mean size 100.
	history := []ckpt.IntervalStat{iv(50, 50), iv(50, 50), iv(50, 50)}

	cases := []struct {
		name    string
		history []ckpt.IntervalStat
		open    ckpt.IntervalStat
		want    bool
	}{
		{"too little history", history[:2], iv(10, 90), false},
		{"zero historical volume", []ckpt.IntervalStat{iv(0, 0), iv(0, 0), iv(0, 0)}, iv(10, 90), false},
		{"open interval too small to judge", history, iv(4, 45), false},
		{"open ratio at the average", history, iv(50, 50), false},
		{"open ratio inside the 2-point margin", history, iv(49, 51), false},
		{"open ratio above the margin", history, iv(40, 60), true},
		{"fully omitted interval", history, iv(0, 100), true},
	}
	for _, c := range cases {
		if got := shouldDefer(c.history, c.open); got != c.want {
			t.Errorf("%s: shouldDefer = %v, want %v", c.name, got, c.want)
		}
	}
}

// phasedKernel is a workload whose omission profile changes mid-run: a first
// phase of plain-store rewrites (logged, never omitted) followed by a second
// phase of associated-store rewrites over the same array (omission-rich once
// the old values themselves came from associated stores). The early
// intervals give the adaptive trigger a low-omission history; the late ones
// push the open interval's ratio above it and fire deferrals.
func phasedKernel(threads, perThread, plainIters, assocIters int) *prog.Program {
	b := prog.New("phasedkernel")
	a := b.Data(threads * perThread)
	out := b.Data(threads * perThread)

	const (
		rBase  isa.Reg = 1
		rIdx   isa.Reg = 2
		rVal   isa.Reg = 3
		rEnd   isa.Reg = 4
		rAddr  isa.Reg = 5
		rTmp   isa.Reg = 6
		rNbr   isa.Reg = 7
		rOBase isa.Reg = 8
		rIter  isa.Reg = 20
		rItEnd isa.Reg = 21
	)
	b.OpI(isa.MULI, rBase, prog.RegTID, int64(perThread))
	b.OpI(isa.ADDI, rBase, rBase, a)
	b.OpI(isa.ADDI, rNbr, prog.RegTID, 1)
	b.Op3(isa.REM, rNbr, rNbr, prog.RegNTHR)
	b.OpI(isa.MULI, rNbr, rNbr, int64(perThread))
	b.OpI(isa.ADDI, rNbr, rNbr, a)
	b.OpI(isa.MULI, rOBase, prog.RegTID, int64(perThread))
	b.OpI(isa.ADDI, rOBase, rOBase, out)
	b.Li(rEnd, int64(perThread))

	iteration := func(assoc bool) func() {
		st := b.St
		if assoc {
			st = b.StAssoc
		}
		return func() {
			b.Loop(rIdx, rEnd, func() {
				b.Op3(isa.ADD, rAddr, rOBase, rIdx)
				b.Ld(rVal, rAddr, 0)
				b.OpI(isa.SHRI, rVal, rVal, 1)
				b.OpI(isa.ADDI, rVal, rVal, 3)
				b.Op3(isa.ADD, rVal, rVal, prog.RegTID)
				b.Op3(isa.ADD, rAddr, rBase, rIdx)
				st(rVal, rAddr, 0)
			})
			b.Barrier()
			b.Loop(rIdx, rEnd, func() {
				b.Op3(isa.ADD, rAddr, rNbr, rIdx)
				b.Ld(rTmp, rAddr, 0)
				b.OpI(isa.MULI, rTmp, rTmp, 2)
				b.OpI(isa.ADDI, rTmp, rTmp, 1)
				b.Op3(isa.ADD, rAddr, rOBase, rIdx)
				st(rTmp, rAddr, 0)
			})
			b.Barrier()
		}
	}
	b.LoopConst(rIter, rItEnd, int64(plainIters), iteration(false))
	b.LoopConst(rIter, rItEnd, int64(assocIters), iteration(true))
	b.Halt()
	return b.MustBuild()
}

// TestAdaptiveDeferCap: on the phased kernel the adaptive trigger must fire
// at least once, and the timeline may never show more than maxDefers
// consecutive deferrals before a checkpoint lands — the cap bounds the
// interval stretch, and with it the worst-case roll-back depth.
func TestAdaptiveDeferCap(t *testing.T) {
	p := phasedKernel(tThreads, tPer, 16, 24)
	ref, err := New(DefaultConfig(tThreads), p)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(tThreads)
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096 * tThreads}
	cfg.PeriodCycles = refRes.Cycles / 8
	cfg.AdaptivePlacement = true
	cfg.RecordTimeline = true
	m, err := New(cfg, phasedKernel(tThreads, tPer, 16, 24))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	defers, run := 0, 0
	for _, e := range res.Timeline {
		switch e.Kind {
		case EvDefer:
			defers++
			run++
			if run > maxDefers {
				t.Fatalf("%d consecutive deferrals at t=%d, cap is %d", run, e.Time, maxDefers)
			}
		case EvCheckpoint:
			run = 0
		}
	}
	if defers == 0 {
		t.Error("adaptive run recorded no deferrals; the trigger never fired")
	}
	if res.Ckpt.Checkpoints == 0 {
		t.Error("adaptive run realised no checkpoints")
	}
}
