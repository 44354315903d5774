package cpu

import (
	"fmt"

	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
)

// SpecState is the rollback snapshot of everything SpecStep mutates on a
// Core. Saving it before a speculative quantum and restoring it on abort
// returns the core bit-identically to the round start (speculative
// execution touches nothing else on the core: hooks are deferred and the
// memory side lives behind the mem.SpecView).
type SpecState struct {
	regs     [isa.NumRegs]int64
	pc       int
	state    State
	quarters int64
	instrs   int64

	accL1I, accInt, accFloat, accL1D uint64
}

// SaveSpec snapshots the core into s.
//
//acr:spec-safe
func (c *Core) SaveSpec(s *SpecState) {
	s.regs = c.Regs
	s.pc = c.PC
	s.state = c.State
	s.quarters = c.quarters
	s.instrs = c.Instrs
	s.accL1I, s.accInt, s.accFloat, s.accL1D = c.accL1I, c.accInt, c.accFloat, c.accL1D
}

// RestoreSpec restores the core from s. The State field is written
// directly, not through SetState: speculative execution fired no OnState
// notification (SpecStep changes State silently), so reverting it silently
// keeps observers exactly balanced.
//
//acr:spec-safe
func (c *Core) RestoreSpec(s *SpecState) {
	c.Regs = s.regs
	c.PC = s.pc
	c.State = s.state
	c.quarters = s.quarters
	c.Instrs = s.instrs
	c.accL1I, c.accInt, c.accFloat, c.accL1D = s.accL1I, s.accInt, s.accFloat, s.accL1D
}

// State returns the scheduling state the snapshot captured (the engine
// replays the pre→post transition through SetState on commit).
func (s *SpecState) SavedState() State { return s.state }

// SavedInstrs returns the retired-instruction count the snapshot captured
// (the engine charges the committed delta against the step budget).
func (s *SpecState) SavedInstrs() int64 { return s.instrs }

// SpecHooks is the speculative counterpart of Hooks' FirstStore. Instead
// of applying the checkpoint effect, implementations predict the stall the
// hook would return (pure, against round-frozen state) and record the event
// for replay through the real Hooks at commit, in the serial merge order.
// cycle is the core-local cycle at which the store started — the first
// component of the engine's deterministic merge key. There is no Assoc
// counterpart: amnesic runs never speculate.
//
//acr:spec-safe
type SpecHooks interface {
	SpecFirstStore(core int, cycle int64, addr, old int64) int64
}

// SpecStep executes one instruction speculatively: identical to Step
// without a tracker in every architectural and timing respect, except that
// memory goes through the core's SpecView, first-store hooks are
// predicted-and-recorded via SpecHooks, and scheduling-state changes
// (BARRIER/HALT) are written directly instead of through SetState —
// OnState observers are shared across cores, so notification is deferred
// to the commit step on the machine's goroutine.
//
// Only cores without ACR speculate: the machine runs amnesic strategies in
// serial quanta. AssocEnabled is therefore false here, ASSOC-ADDR is
// skipped as in a baseline binary and no paired store is latched for it.
//
// SpecStep runs on a worker goroutine. It touches only the core itself,
// the core-private SpecView and frozen shared state; that confinement is
// the data-race-freedom argument for the parallel engine.
//
//acr:spec-safe
//acr:noalloc
func (c *Core) SpecStep(p *prog.Program, sv *mem.SpecView, hooks SpecHooks) {
	if c.State != Running {
		panic(fmt.Sprintf("cpu: SpecStep on %v core %d", c.State, c.ID))
	}
	start := c.quarters / qPerCycle
	in := p.Code[c.PC]
	if in.Op == isa.ASSOCADDR && !c.AssocEnabled {
		c.PC++
		return
	}
	c.accL1I++
	c.Instrs++
	next := c.PC + 1

	switch {
	case in.Op == isa.NOP:
		c.quarters++

	case in.Op.IsALU():
		res := isa.EvalALU(in.Op, c.Regs[in.Rs], c.Regs[in.Rt], c.Regs[in.Rd], in.Imm)
		if in.Rd != 0 {
			c.Regs[in.Rd] = res
		}
		if in.Op.IsFloat() {
			c.accFloat++
		} else {
			c.accInt++
		}
		c.quarters++

	case in.Op == isa.LD:
		addr := c.Regs[in.Rs] + in.Imm
		val, lat := sv.Load(addr)
		if in.Rd != 0 {
			c.Regs[in.Rd] = val
		}
		c.quarters += lat * qPerCycle

	case in.Op == isa.ST:
		addr := c.Regs[in.Rs] + in.Imm
		old, first, lat := sv.Store(addr, c.Regs[in.Rt])
		c.quarters += lat * qPerCycle
		if first && hooks != nil {
			c.quarters += hooks.SpecFirstStore(c.ID, start, addr, old) * qPerCycle
		}

	case in.Op.IsBranch():
		if isa.BranchTaken(in.Op, c.Regs[in.Rs], c.Regs[in.Rt]) {
			next = int(in.Imm)
		}
		c.quarters++

	case in.Op == isa.BARRIER:
		c.quarters++
		c.State = AtBarrier // silent; transition replayed at commit

	case in.Op == isa.HALT:
		c.quarters++
		c.State = Halted // silent; transition replayed at commit

	default:
		panic(fmt.Sprintf("cpu: unhandled op %v at pc %d", in.Op, c.PC))
	}
	c.PC = next
}
