package sim

import (
	"testing"

	"acr/internal/ckpt"
	"acr/internal/cpu"
)

// TestSchedulerAggregatesMatchScans proves the incremental syncTime/liveMax
// aggregates equal the reference O(cores) scans at every consultation point:
// with debugCheckAggregates set, every aggregate-served answer self-checks
// against the scan and panics on the first divergence. The machines below
// exercise every path that feeds the aggregates — barrier entry and release,
// checkpoint establishment synchronisation, halts, and recovery roll-backs
// (which rewind clocks and force the stale/rescan path).
func TestSchedulerAggregatesMatchScans(t *testing.T) {
	debugCheckAggregates = true
	defer func() { debugCheckAggregates = false }()

	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"baseline", DefaultConfig(tThreads)},
		{"ckpt", ckptConfig(t, false, tCkpts)},
		{"amnesic", ckptConfig(t, true, tCkpts)},
		{"errors", errConfig(t, true, tCkpts, 2)},
	}
	local := ckptConfig(t, true, tCkpts)
	local.Mode = ckpt.Local
	scenarios = append(scenarios, struct {
		name string
		cfg  Config
	}{"local-errors", func() Config {
		c := errConfig(t, true, tCkpts, 2)
		c.Mode = ckpt.Local
		return c
	}()})
	scenarios = append(scenarios, struct {
		name string
		cfg  Config
	}{"local", local})

	for _, sc := range scenarios {
		if _, _ = runCfg(t, sc.cfg); t.Failed() {
			t.Fatalf("%s: run failed", sc.name)
		}
	}
}

// TestSchedulerAggregatesUnit drives the scheduler directly through the
// transitions the hooks maintain the aggregates over and compares against
// the scans after each step.
func TestSchedulerAggregatesUnit(t *testing.T) {
	cores := make([]*cpu.Core, 4)
	for i := range cores {
		cores[i] = cpu.New(i, 0, len(cores))
	}
	s := newScheduler(cores)

	check := func(label string) {
		t.Helper()
		st, sn := s.syncTimeScan()
		gt, gn := s.syncTime()
		if gt != st || gn != sn {
			t.Fatalf("%s: syncTime (%d,%d) != scan (%d,%d)", label, gt, gn, st, sn)
		}
		for _, floor := range []int64{0, 50, 10_000} {
			if got, want := s.liveMax(floor), s.liveMaxScan(floor); got != want {
				t.Fatalf("%s: liveMax(%d) %d != scan %d", label, floor, got, want)
			}
		}
	}

	advance := func(c *cpu.Core, to int64) {
		c.SetCycles(to)
		s.noteClock(to)
	}

	check("initial")
	advance(cores[0], 10)
	advance(cores[1], 25)
	check("advanced")
	cores[1].SetState(cpu.AtBarrier)
	check("one at barrier")
	advance(cores[2], 40)
	cores[2].SetState(cpu.AtBarrier)
	cores[0].SetState(cpu.AtBarrier)
	advance(cores[3], 31)
	cores[3].SetState(cpu.AtBarrier)
	check("all at barrier")
	for _, c := range cores {
		advance(c, 60)
		c.SetState(cpu.Running)
	}
	check("released")
	advance(cores[3], 90)
	cores[3].SetState(cpu.Halted)
	check("halted drops out of live set")
	// Recovery-shaped rewind: clocks move backwards, states restored.
	for _, c := range cores {
		c.SetCycles(15)
		c.SetState(cpu.Running)
	}
	s.invalidate()
	check("after rewind + invalidate")
	advance(cores[0], 100)
	check("advance after rescan re-seed")
}
