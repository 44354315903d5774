// Parallel execution engine: conflict-checked concurrent core quanta with
// serial fallback (Config.Workers > 1, strategies other than amnesic and
// auto).
//
// The engine exploits the same isolation argument the quantum-batched serial
// scheduler rests on (sched.go): the serial interleaving is fully
// characterised by ordering instructions by (⌊start cycle⌋, core id, per-core
// program order). A speculative round picks a horizon h — the earlier of the
// next timed event (checkpoint boundary, error detection) and a fixed span —
// and executes every running core with clock < h concurrently on a worker
// pool, each against a private mem.SpecView that overlays its writes, records
// the cache lines it touched, and defers every cross-core side effect
// (directory metadata, log bits, stats, energy). First-store hooks are
// predicted against round-frozen state and recorded for replay.
//
// Commit requires the round to have been conflict-free: no line written by
// one quantum was touched — read or written — by another. Conflict-free
// quanta read exactly the values the serial oracle would have shown them,
// so replaying their deferred effects in the serial merge order reproduces
// the serial machine bit-identically: memory words, log bits, every
// statistic and every energy count. Any round that conflicts (or panics on
// a worker) is discarded — cores, views and caches roll back to the round
// start — and the span is re-executed through the serial scheduler, the
// oracle. Determinism therefore never depends on the engine being right
// about speculation, only on it detecting when it was wrong.
//
// Amnesic runs never reach the engine (Machine.run): their Slice tracking,
// ASSOC-ADDR compiles and AddrMap lookups run only in serial quanta.
package sim

import (
	"fmt"
	"sort"

	"acr/internal/cpu"
	"acr/internal/mem"
)

// roundSpanCycles caps a speculative round's horizon in event-free
// stretches. Smaller spans bound the work discarded on a conflict (and the
// overlay/journal footprint); larger spans amortise round overhead. Rounds
// never cross a timed event, so the cap only matters between events.
const roundSpanCycles = 2048

// hookEvent is one deferred first-store hook occurrence, recorded during
// speculation and replayed through the real cpu.Hooks at commit.
type hookEvent struct {
	cycle     int64 // start cycle of the issuing store (merge key)
	addr      int64
	old       int64 // word value before the store
	predicted int64 // stall the speculative prediction charged
	core      int32
}

// parallelEngine owns the worker pool and the per-core speculation state.
// All fields indexed by core id are touched by at most one worker during a
// round; everything else is main-goroutine only.
type parallelEngine struct {
	m *Machine

	views  []*mem.SpecView // per-core speculative memory views
	snaps  []cpu.SpecState // per-core rollback snapshots
	events [][]hookEvent   // per-core deferred hook events
	panics []any           // per-core captured worker panics

	roundH   int64 // current round horizon; frozen while workers run
	eligible []int
	writerOf map[int64]int // line -> writing core, reused per round
	merged   []hookEvent   // reusable merge buffer

	jobs    chan int
	results chan int
}

func newParallelEngine(m *Machine) *parallelEngine {
	n := len(m.cores)
	w := m.cfg.Workers
	if w > n {
		w = n
	}
	e := &parallelEngine{
		m:        m,
		views:    make([]*mem.SpecView, n),
		snaps:    make([]cpu.SpecState, n),
		events:   make([][]hookEvent, n),
		panics:   make([]any, n),
		eligible: make([]int, 0, n),
		writerOf: make(map[int64]int, 256),
		jobs:     make(chan int, n),
		results:  make(chan int, n),
	}
	for i := range e.views {
		e.views[i] = mem.NewSpecView(m.sys, i)
	}
	for i := 0; i < w; i++ {
		go e.worker()
	}
	return e
}

func (e *parallelEngine) shutdown() { close(e.jobs) }

func (e *parallelEngine) worker() {
	for id := range e.jobs {
		e.runCore(id)
		e.results <- id
	}
}

// runCore executes one core's speculative quantum up to the round horizon.
// It touches only the core, its SpecView and frozen shared state. A panic
// (the simulator's response to architecturally impossible situations) is
// captured and re-raised deterministically by the serial replay of the
// aborted round, on the machine's goroutine.
//
//acr:spec-safe
func (e *parallelEngine) runCore(id int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[id] = r
		}
	}()
	m := e.m
	c := m.cores[id]
	sv := e.views[id]
	for c.State == cpu.Running && c.Cycles() < e.roundH {
		c.SpecStep(m.program, sv, e)
	}
}

// SpecFirstStore implements cpu.SpecHooks: predict the stall from the
// strategy alone and defer the real hook to commit.
//
//acr:spec-safe
func (e *parallelEngine) SpecFirstStore(core int, cycle int64, addr, old int64) int64 {
	m := e.m
	if m.mgr == nil {
		return 0
	}
	stall := m.mgr.PredictFirstStore()
	e.events[core] = append(e.events[core], hookEvent{
		cycle: cycle, core: int32(core),
		addr: addr, old: old, predicted: stall,
	})
	return stall
}

// collect gathers the cores eligible for a round to horizon h — every
// running core whose clock is below h — and returns how many there are.
func (e *parallelEngine) collect(h int64) int {
	e.eligible = e.eligible[:0]
	for _, c := range e.m.cores {
		if c.State == cpu.Running && c.Cycles() < h {
			e.eligible = append(e.eligible, c.ID)
		}
	}
	return len(e.eligible)
}

// round runs one speculative round over the collected cores to horizon h:
// dispatch, conflict check, then commit or roll back. It reports whether
// the round committed; after an abort the machine is exactly at the round
// start and the caller replays the span serially.
func (e *parallelEngine) round(h int64) (bool, error) {
	m := e.m
	e.roundH = h
	for _, id := range e.eligible {
		c := m.cores[id]
		c.SaveSpec(&e.snaps[id])
		e.views[id].Begin()
		e.events[id] = e.events[id][:0]
		e.panics[id] = nil
	}
	m.schedStats.Rounds++
	for _, id := range e.eligible {
		e.jobs <- id
	}
	for range e.eligible {
		<-e.results
	}

	ok := true
	for _, id := range e.eligible {
		if e.panics[id] != nil {
			ok = false
		}
	}
	if ok && e.conflicts() {
		ok = false
	}
	if !ok {
		e.abort()
		return false, nil
	}
	return true, e.commit()
}

// conflicts reports whether any line written by one quantum was touched by
// another.
func (e *parallelEngine) conflicts() bool {
	clear(e.writerOf)
	for _, id := range e.eligible {
		for _, ln := range e.views[id].WriteLines() {
			if w, seen := e.writerOf[ln]; seen && w != id {
				return true
			}
			e.writerOf[ln] = id
		}
	}
	for _, id := range e.eligible {
		for _, ln := range e.views[id].ReadLines() {
			if w, seen := e.writerOf[ln]; seen && w != id {
				return true
			}
		}
	}
	return false
}

// commit applies a conflict-free round in the serial merge order.
func (e *parallelEngine) commit() error {
	m := e.m

	// 1. Memory effects: DRAM words, log bits, directory metadata, cache
	// journals, per-core stats, buffered energy. Per-line effects commute
	// across the round's quanta because each line has at most one writer.
	for _, id := range e.eligible {
		e.views[id].Commit()
	}

	// 2. Hook replay in the serial merge order (⌊start cycle⌋, core id,
	// per-core program order): checkpoint log appends land exactly as the
	// serial oracle would order them. The stable sort keeps each core's
	// events in program order within a cycle. A replay stall differing
	// from the prediction would mean mispredicted timing is already baked
	// into a committed clock; no speculating strategy's stall depends on
	// anything but its kind, and the check turns any gap in that argument
	// into a hard error instead of a silently wrong profile.
	e.merged = e.merged[:0]
	for _, id := range e.eligible {
		e.merged = append(e.merged, e.events[id]...)
	}
	sort.SliceStable(e.merged, func(i, j int) bool {
		if e.merged[i].cycle != e.merged[j].cycle {
			return e.merged[i].cycle < e.merged[j].cycle
		}
		return e.merged[i].core < e.merged[j].core
	})
	for i := range e.merged {
		ev := &e.merged[i]
		if stall := m.FirstStore(int(ev.core), ev.addr, ev.old); stall != ev.predicted {
			return fmt.Errorf("sim: parallel hook replay diverged on core %d addr %d (predicted stall %d, replay %d); speculation is unsound for this run",
				ev.core, ev.addr, ev.predicted, stall)
		}
	}

	// 3. Scheduling transitions (replayed through SetState so OnState
	// observers fire exactly once, on the machine's goroutine), meter
	// flushes, clock notes and the step budget.
	for _, id := range e.eligible {
		c := m.cores[id]
		if to := c.State; to != e.snaps[id].SavedState() {
			c.State = e.snaps[id].SavedState()
			c.SetState(to)
		}
		c.FlushAccounting(m.meter)
		m.sched.noteClock(c.Cycles())
		d := c.Instrs - e.snaps[id].SavedInstrs()
		m.steps += d
		m.schedStats.SpecInstrs += d
	}
	m.schedStats.Committed++
	// The committed quanta moved many cores' clocks at once.
	m.sched.clocksMoved()
	return nil
}

// abort rolls every participating core and view back to the round start.
// The restore is bit-exact, so the serial replay that follows sees
// precisely the state the round started from.
func (e *parallelEngine) abort() {
	m := e.m
	for _, id := range e.eligible {
		m.cores[id].RestoreSpec(&e.snaps[id])
		e.views[id].Abort()
	}
	m.schedStats.Aborted++
	// The roll-back rewound clocks the heap had already ordered.
	m.sched.clocksMoved()
}
