// Package energy provides the event-based energy model of the simulated
// machine, standing in for McPAT (paper §IV). Every architectural event is
// charged a fixed energy; leakage is charged per core-cycle. The absolute
// magnitudes are 22 nm-era estimates; what the reproduction relies on is the
// ratio structure the paper's argument rests on: computation (a few pJ per
// ALU op) is one to two orders of magnitude cheaper than moving a word to or
// from DRAM (paper §I, §II-B).
package energy

import "fmt"

// Event identifies a chargeable architectural event.
type Event int

// Events charged by the simulator.
const (
	IntOp       Event = iota // integer ALU operation
	FloatOp                  // FPU operation
	L1IAccess                // instruction fetch from L1-I
	L1DAccess                // L1-D access (hit or fill)
	L2Access                 // L2 access
	DRAMRead                 // one word read from DRAM
	DRAMWrite                // one word written to DRAM
	AddrMapOp                // AddrMap read/insert (modelled after L1-D)
	SliceBufOp               // slice input-operand buffer access
	HandlerOp                // ACR checkpoint/recovery handler operation
	RegCkpt                  // checkpointing one register
	BarrierSync              // one core participating in a barrier
	NVMRead                  // one word read from the fast checkpoint tier
	NVMWrite                 // one word written to the fast checkpoint tier
	numEvents
)

var eventNames = [...]string{
	IntOp: "IntOp", FloatOp: "FloatOp",
	L1IAccess: "L1IAccess", L1DAccess: "L1DAccess", L2Access: "L2Access",
	DRAMRead: "DRAMRead", DRAMWrite: "DRAMWrite",
	AddrMapOp: "AddrMapOp", SliceBufOp: "SliceBufOp", HandlerOp: "HandlerOp",
	RegCkpt: "RegCkpt", BarrierSync: "BarrierSync",
	NVMRead: "NVMRead", NVMWrite: "NVMWrite",
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// Model holds per-event energies in picojoules and the leakage power per
// core expressed as pJ per cycle.
type Model struct {
	PerEvent [numEvents]float64 // pJ
	// LeakPerCoreCycle is static energy per core per cycle (pJ). At
	// 1.09 GHz, 45 pJ/cycle corresponds to roughly 49 mW of static power
	// per core, in line with McPAT 22 nm small-core estimates.
	LeakPerCoreCycle float64
}

// Default22nm returns the energy model used throughout the evaluation.
// Magnitudes follow the imbalance the paper builds on: an ALU op costs a few
// pJ, an L1 access ~15 pJ, an L2 access ~50 pJ, and a 64-bit word moved
// to/from DRAM ~650 pJ (≈10 pJ/bit including channel energy).
func Default22nm() *Model {
	m := &Model{LeakPerCoreCycle: 45}
	m.PerEvent[IntOp] = 4
	m.PerEvent[FloatOp] = 16
	m.PerEvent[L1IAccess] = 8
	m.PerEvent[L1DAccess] = 15
	m.PerEvent[L2Access] = 50
	m.PerEvent[DRAMRead] = 650
	m.PerEvent[DRAMWrite] = 650
	m.PerEvent[AddrMapOp] = 15 // modelled after an L1-D access (paper §IV)
	m.PerEvent[SliceBufOp] = 15
	m.PerEvent[HandlerOp] = 10 // modelled after a cache-controller op
	m.PerEvent[RegCkpt] = 2
	m.PerEvent[BarrierSync] = 50
	// Fast checkpoint tier: an on-package NVM-like log store (STT-MRAM
	// class). Accesses stay off the DRAM channel, so a word costs a
	// fraction of a DRAM move; writes are the expensive direction.
	m.PerEvent[NVMRead] = 100
	m.PerEvent[NVMWrite] = 200
	return m
}

// Meter accumulates energy against a Model. Meters are not safe for
// concurrent use; the simulator charges them from one goroutine only.
type Meter struct {
	model  *Model
	counts [numEvents]uint64
	// extra accumulates energy added directly in pJ (leakage).
	extraPJ float64
}

// NewMeter returns a meter charging against model.
func NewMeter(model *Model) *Meter {
	if model == nil {
		model = Default22nm()
	}
	return &Meter{model: model}
}

// Add charges n occurrences of event e.
func (m *Meter) Add(e Event, n uint64) { m.counts[e] += n }

// AddLeakage charges static energy for coreCycles core-cycles.
func (m *Meter) AddLeakage(coreCycles float64) {
	m.extraPJ += coreCycles * m.model.LeakPerCoreCycle
}

// Count returns the number of occurrences charged for e.
func (m *Meter) Count(e Event) uint64 { return m.counts[e] }

// Counts returns the non-zero per-event counts keyed by event name. The
// breakdown is what telemetry exports to answer "where do the picojoules
// go": multiplying each count by the model's per-event energy reproduces
// DynamicPJ exactly.
func (m *Meter) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	for e, n := range m.counts {
		if n != 0 {
			out[Event(e).String()] = n
		}
	}
	return out
}

// TotalPJ returns the accumulated energy in picojoules.
func (m *Meter) TotalPJ() float64 {
	t := m.extraPJ
	for e, n := range m.counts {
		t += float64(n) * m.model.PerEvent[e]
	}
	return t
}

// DynamicPJ returns accumulated dynamic (event) energy only, excluding
// leakage.
func (m *Meter) DynamicPJ() float64 {
	t := 0.0
	for e, n := range m.counts {
		t += float64(n) * m.model.PerEvent[e]
	}
	return t
}

// Reset clears all accumulated counts and leakage.
func (m *Meter) Reset() {
	m.counts = [numEvents]uint64{}
	m.extraPJ = 0
}

// Snapshot returns the current total; callers diff snapshots to attribute
// energy to execution phases.
func (m *Meter) Snapshot() float64 { return m.TotalPJ() }
