package sim

import (
	"fmt"
	"math"
	"math/bits"

	"acr/internal/cpu"
)

// scheduler implements the machine's deterministic scheduling policy in
// quantum-batched form. The policy is unchanged from the original
// per-instruction loop — among runnable cores, the one with the smallest
// local clock executes next, ties broken by core id — but instead of
// rescanning every core per retired instruction, the scheduler
//
//   - maintains running/barrier/halted populations incrementally through
//     the cpu.Core.OnState hook (cores change state at barriers, halts and
//     roll-backs only, so the hook fires per event, not per instruction), and
//   - computes, once per pick, the quantum bound: the first clock value at
//     which the choice must be revisited because another running core would
//     win the min-clock comparison.
//
// The run loop then steps the picked core in a tight loop while its clock
// stays below the bound. Because no other core moves during the quantum,
// the instruction interleaving is bit-identical to per-instruction
// rescanning, while the scheduling overhead drops from
// O(instructions × cores) to O(events × cores).
//
// syncTime and liveMax are served from aggregates maintained through the
// OnState hook plus noteClock notifications at the points where the run
// loop advances a clock, falling back to a scan after events that rewind
// clocks (recovery) or change the live set (halts) — see invalidate.
type scheduler struct {
	cores  []*cpu.Core
	counts [3]int // populations indexed by cpu.State

	// barrierMax is the latest clock among barrier-waiting cores,
	// maintained on transitions into AtBarrier (the core's clock already
	// includes the BARRIER instruction's cycle when the hook fires).
	// barrierStale forces a rescan after transitions that can lower it
	// (a waiter leaving while others remain, i.e. recovery restores).
	barrierMax   int64
	barrierStale bool

	// clockHi is the high-water mark of the clocks the run loop has
	// reported through noteClock. While liveStale is clear it equals the
	// max clock over non-halted cores at every consultation point.
	clockHi   int64
	liveStale bool

	// bkts is a grouped calendar queue over the running cores: one bucket
	// per distinct (clock, 64-core id group) pair, sorted ascending by
	// (cyc, grp) from index bhd, each holding the bitmask of core ids
	// (within the group) at that clock. The reference pick scans every
	// core per pick, which at 32 cores touches 32 scattered Core structs —
	// a cache-line walk that dominated the run-loop profile; at 128 or 256
	// cores it is four to eight times worse. Here a pick is O(1) at any
	// machine width: the best core is the lowest set bit of the front
	// bucket (minimal clock, minimal group, so minimal id among min-clock
	// cores), and the bound needs at most the front and second buckets
	// (see pick). Between picks only the picked core's clock moves
	// (quantum isolation) plus any peers coalesce eagerly advanced — both
	// maintain the queue by sorted reinsertion near the front; any event
	// that changes the running population or moves other cores' clocks
	// (state transitions, checkpoint releases, recovery rewinds) marks
	// the queue stale and the next pick rebuilds it, which keeps
	// maintenance O(events × cores) like the population counters.
	bkts      []pickBkt
	bhd       int
	pickStale bool
	// lastIdx is the core id removed by the previous pick whose bit is
	// pending reinsertion at its advanced clock, -1 if none.
	lastIdx int
}

// pickBkt is one grouped calendar-queue bucket: the set of running cores
// with id in [64*grp, 64*grp+64) (bit i ⇒ core 64*grp+i) whose clock
// equals cyc. Splitting each clock value by id group keeps the bucket mask
// one machine word at every core count while preserving the ordering the
// pick needs: ascending (cyc, grp) order enumerates min-clock cores in
// ascending id order.
type pickBkt struct {
	cyc  int64
	grp  int32
	mask uint64
}

// unbounded is the quantum bound when no other core constrains the pick
// (the clock value is unreachable within MaxSteps).
const unbounded = int64(math.MaxInt64)

// debugCheckAggregates, set by tests, verifies every aggregate-served
// syncTime/liveMax answer against the reference scan.
var debugCheckAggregates bool

// newScheduler attaches the state hook to every core and seeds the
// population counters.
func newScheduler(cores []*cpu.Core) *scheduler {
	// Bucket storage never reallocates: ≤ len(cores) live buckets plus a
	// bounded run of dead front entries between compactions (pick and
	// coalesce both compact once bhd reaches 64 — see compact).
	s := &scheduler{
		cores:     cores,
		bkts:      make([]pickBkt, 0, len(cores)+96),
		pickStale: true,
		lastIdx:   -1,
	}
	for _, c := range cores {
		s.counts[c.State]++
		c.OnState = s.transition
	}
	return s
}

func (s *scheduler) transition(c *cpu.Core, from, to cpu.State) {
	s.counts[from]--
	s.counts[to]++
	// The running population changed; the pick queue no longer mirrors it.
	s.pickStale = true
	switch to {
	case cpu.AtBarrier:
		if t := c.Cycles(); t > s.barrierMax {
			s.barrierMax = t
		}
	case cpu.Halted:
		// A halted core leaves the live set; clockHi may now overestimate
		// liveMax.
		s.liveStale = true
	}
	switch from {
	case cpu.AtBarrier:
		if s.counts[cpu.AtBarrier] == 0 {
			// Barrier fully released: the aggregate restarts exact.
			s.barrierMax = 0
			s.barrierStale = false
		} else {
			// A waiter left while others remain (recovery restore): the
			// maximum may have dropped.
			s.barrierStale = true
		}
	case cpu.Halted:
		// Un-halt (recovery restore rewinds clocks).
		s.liveStale = true
	}
}

// noteClock reports that the run loop advanced a core's clock to t (cycle
// units). The run loop calls it once per quantum, and the
// coordinator/recovery paths after every synchronisation — every point
// where a clock moves between liveMax consultations.
func (s *scheduler) noteClock(t int64) {
	if t > s.clockHi {
		s.clockHi = t
	}
}

// invalidate marks both aggregates stale after an event the hooks cannot
// characterise exactly — recovery rewinds clocks arbitrarily. The next
// syncTime/liveMax rescans and re-seeds.
func (s *scheduler) invalidate() {
	s.barrierStale = true
	s.liveStale = true
	s.pickStale = true
}

// clocksMoved reports that clocks of cores other than the last-picked one
// advanced without a state transition (checkpoint releases), so the pick
// queue's cached clocks can no longer be trusted.
func (s *scheduler) clocksMoved() { s.pickStale = true }

func (s *scheduler) running() int   { return s.counts[cpu.Running] }
func (s *scheduler) atBarrier() int { return s.counts[cpu.AtBarrier] }
func (s *scheduler) halted() int    { return s.counts[cpu.Halted] }

// pick returns the core to execute next — the running core with the
// smallest clock, lowest id on ties — and the exclusive quantum bound: the
// core keeps executing while its clock stays strictly below the bound. A
// lower-id peer takes over at clock equality, so it bounds at its clock; a
// higher-id peer loses ties, so it bounds one cycle later. The caller must
// ensure at least one core is running.
//
// The answer is served from the grouped calendar queue. The best core is
// the lowest set bit of the front (minimum (clock, group)) bucket: every
// other min-clock core has either the same group and a higher bit, or a
// higher group — a higher id either way. Writing limit(c) = c.Cycles() +
// (1 if c.ID > best.ID else 0), the bound is the minimum limit over all
// non-best cores (exactly what pickScan computes):
//
//   - the front bucket's remaining cores contribute cyc+1 (higher ids);
//   - the second bucket contributes its cyc when it can hold a core with
//     a lower id than best's — a strictly lower group, or best's own
//     group with a bit below best's — and cyc+1 otherwise;
//   - every later bucket sorts ≥ the second in (cyc, grp), and a case
//     split on (clock, group) against best's shows its contribution never
//     beats the second bucket's: a later bucket at the same clock has a
//     higher group, so if the second bucket's group is ≤ best's its cyc
//     dominates, and if it is > best's both contribute cyc+1. When the
//     front bucket still has cores, its cyc+1 ≤ any later contribution
//     dominates everything else.
//
// The picked core's bit is removed here and reinserted at its advanced
// clock on the next pick (quantum isolation: nothing else moves between
// picks except peers coalesce advances, and coalesce does its own queue
// surgery); events that move other clocks or change the running set mark
// the queue stale (transition, invalidate, clocksMoved) and it is rebuilt
// here.
func (s *scheduler) pick() (*cpu.Core, int64) {
	if s.pickStale {
		s.rebuildBkts()
	} else if s.lastIdx >= 0 {
		c := s.cores[s.lastIdx]
		s.insertBkt(c.Cycles(), uint(s.lastIdx))
		s.lastIdx = -1
	}
	if s.bhd == len(s.bkts) {
		return nil, unbounded
	}
	s.compact()
	f := &s.bkts[s.bhd]
	bit := bits.TrailingZeros64(f.mask)
	best := s.cores[int(f.grp)<<6|bit]
	f.mask &^= 1 << uint(bit)
	bound := unbounded
	if f.mask != 0 {
		bound = f.cyc + 1
	} else {
		s.bhd++
		bound = s.frontBound(best)
	}
	s.lastIdx = best.ID
	if debugCheckAggregates {
		if sb, sbound := s.pickScan(); sb != best || sbound != bound {
			panic(fmt.Sprintf("sim: calendar pick (core %d, bound %d) != scan pick (core %d, bound %d)",
				best.ID, bound, sb.ID, sbound))
		}
	}
	return best, bound
}

// compact drops dead front entries once they accumulate so the backing
// array never grows past its fixed capacity. Both pick and every coalesce
// iteration call it, bounding bhd by 64 at every append point.
func (s *scheduler) compact() {
	if s.bhd < 64 {
		return
	}
	n := copy(s.bkts, s.bkts[s.bhd:])
	s.bkts = s.bkts[:n]
	s.bhd = 0
}

// frontBound returns the quantum bound the current front bucket imposes on
// best, with best's own bit already removed from the queue: the front's
// cyc when it can hold a lower id than best's (lower group, or best's
// group with a bit below best's), cyc+1 otherwise, unbounded on an empty
// queue. The later-buckets-dominated argument on pick applies verbatim.
func (s *scheduler) frontBound(best *cpu.Core) int64 {
	if s.bhd == len(s.bkts) {
		return unbounded
	}
	n := &s.bkts[s.bhd]
	grp := int32(best.ID >> 6)
	bit := uint(best.ID & 63)
	if n.grp < grp || (n.grp == grp && n.mask&((1<<bit)-1) != 0) {
		return n.cyc
	}
	return n.cyc + 1
}

// coalesce tries to raise a fresh pick's bound toward ceil by retiring the
// binding peers' core-private instruction prefixes through the machine's
// eager callback. The peer that sets the bound is by construction at the
// front of the queue (best's bit is already removed); if its next
// instructions are private the callback retires them — private
// instructions commute across cores, so machine state stays bit-identical
// to strict min-clock order — and the peer is reinserted at its advanced
// clock, which recomputes a (weakly) larger bound. The loop stops at the
// first peer the callback cannot advance, or once the bound reaches ceil,
// which the caller caps at every armed event time so no peer executes
// across a checkpoint boundary or error detection. The returned bound may
// exceed ceil (the reinserted peer can jump past it); the caller clamps
// against event times afterwards, exactly as for an ordinary pick bound.
func (s *scheduler) coalesce(best *cpu.Core, bound, ceil int64, eager func(*cpu.Core, int64) bool) int64 {
	for bound < ceil {
		if s.bhd == len(s.bkts) {
			return unbounded
		}
		s.compact()
		f := &s.bkts[s.bhd]
		bit := bits.TrailingZeros64(f.mask)
		id := int(f.grp)<<6 | bit
		p := s.cores[id]
		if !eager(p, ceil) {
			return bound
		}
		// The peer advanced (private ops only, so it is still running):
		// reinsert it at its new clock and recompute the bound.
		f.mask &^= 1 << uint(bit)
		if f.mask == 0 {
			s.bhd++
		}
		s.insertBkt(p.Cycles(), uint(id))
		s.noteClock(p.Cycles())
		bound = s.frontBound(best)
	}
	return bound
}

// pickScan is the reference O(cores) fused scan pick retains as the debug
// oracle for the heap. When a core displaces the current best, the
// displaced best bounds at exactly its clock (it has the lower id, so it
// takes over at equality); a non-best core seen while some lower-id best
// holds bounds at clock+1 (it loses ties). A candidate's provisional
// bound can only be an overestimate while it might still be displaced,
// and any such overestimate is dominated by the exact bound contributed
// when the displacement happens, so the minimum is identical to the
// two-pass result.
func (s *scheduler) pickScan() (*cpu.Core, int64) {
	var best *cpu.Core
	bound := unbounded
	for _, c := range s.cores {
		if c.State != cpu.Running {
			continue
		}
		switch {
		case best == nil:
			best = c
		case c.Cycles() < best.Cycles():
			if best.Cycles() < bound {
				bound = best.Cycles()
			}
			best = c
		default:
			if limit := c.Cycles() + 1; limit < bound {
				bound = limit
			}
		}
	}
	return best, bound
}

// rebuildBkts re-seeds the calendar queue from the running population.
func (s *scheduler) rebuildBkts() {
	s.bkts = s.bkts[:0]
	s.bhd = 0
	for i, c := range s.cores {
		if c.State == cpu.Running {
			s.insertBkt(c.Cycles(), uint(i))
		}
	}
	s.pickStale = false
	s.lastIdx = -1
}

// insertBkt adds core id at clock cyc, keeping buckets sorted by
// (cyc, grp) from bhd. Reinsertion clocks sit at or just past the front,
// so the linear probe is short.
func (s *scheduler) insertBkt(cyc int64, id uint) {
	grp := int32(id >> 6)
	bit := id & 63
	b := s.bkts
	i := s.bhd
	for i < len(b) && (b[i].cyc < cyc || (b[i].cyc == cyc && b[i].grp < grp)) {
		i++
	}
	if i < len(b) && b[i].cyc == cyc && b[i].grp == grp {
		b[i].mask |= 1 << bit
		return
	}
	b = append(b, pickBkt{}) // capacity fixed at construction; pick and coalesce compact before it can overflow
	copy(b[i+1:], b[i:len(b)-1])
	b[i] = pickBkt{cyc: cyc, grp: grp, mask: 1 << bit}
	s.bkts = b
}

// syncTime returns the latest clock among barrier-waiting cores plus their
// population (the barrier release point), from the incremental aggregate
// when it is exact and by rescan otherwise.
func (s *scheduler) syncTime() (t int64, n int) {
	if !s.barrierStale {
		t, n = s.barrierMax, s.counts[cpu.AtBarrier]
		if debugCheckAggregates {
			if st, sn := s.syncTimeScan(); st != t || sn != n {
				panic(fmt.Sprintf("sim: syncTime aggregate (%d,%d) != scan (%d,%d)", t, n, st, sn))
			}
		}
		return t, n
	}
	t, n = s.syncTimeScan()
	s.barrierMax, s.barrierStale = t, false
	return t, n
}

// syncTimeScan is the reference O(cores) computation of syncTime.
func (s *scheduler) syncTimeScan() (t int64, n int) {
	for _, c := range s.cores {
		if c.State == cpu.AtBarrier {
			n++
			if c.Cycles() > t {
				t = c.Cycles()
			}
		}
	}
	return t, n
}

// liveMax returns the latest clock among non-halted cores (checkpoint
// establishment and error-detection synchronisation points), from the
// noteClock high-water mark when it is exact and by rescan otherwise.
func (s *scheduler) liveMax(floor int64) int64 {
	if !s.liveStale {
		t := floor
		if s.clockHi > t {
			t = s.clockHi
		}
		if debugCheckAggregates {
			if st := s.liveMaxScan(floor); st != t {
				panic(fmt.Sprintf("sim: liveMax aggregate %d != scan %d (floor %d)", t, st, floor))
			}
		}
		return t
	}
	t := s.liveMaxScan(0)
	s.clockHi, s.liveStale = t, false
	if t > floor {
		return t
	}
	return floor
}

// liveMaxScan is the reference O(cores) computation of liveMax.
func (s *scheduler) liveMaxScan(floor int64) int64 {
	t := floor
	for _, c := range s.cores {
		if c.State != cpu.Halted && c.Cycles() > t {
			t = c.Cycles()
		}
	}
	return t
}
