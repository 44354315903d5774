package analysis

import (
	"fmt"
	"sort"

	"acr/internal/isa"
	"acr/internal/prog"
)

// Severity grades a lint diagnostic. The workload guard test treats
// warnings and errors alike as failures; the split exists so reports can
// distinguish definite bugs from smells.
type Severity uint8

// Severities.
const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diag is one lint finding, anchored to an instruction (PC) and its basic
// block.
type Diag struct {
	Pass     string   `json:"pass"`
	PC       int      `json:"pc"`
	Block    int      `json:"block"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

func (d Diag) String() string {
	return fmt.Sprintf("pc %d [%s] %s: %s", d.PC, d.Pass, d.Severity, d.Msg)
}

// Lint runs the pass suite over a built program: unreachable blocks,
// definitely-uninitialised register reads, dead register writes and writes
// to the hardwired zero register. Each pass finds a defect the simulator
// runs without complaint; defects a run already stops on (an out-of-range
// address, a loop that never ends) are left to the run, and falling
// through past the code image is a prog.Validate error. Lint returns the
// findings sorted by PC; the error is non-nil only when the CFG cannot be
// constructed (e.g. a branch targets an instruction outside the code
// image).
func Lint(p *prog.Program) ([]Diag, error) {
	return LintCode(p.Code, p.Entry)
}

// LintCode is Lint over a raw code image.
func LintCode(code []isa.Instr, entry int) ([]Diag, error) {
	g, err := BuildCFG(code, entry)
	if err != nil {
		return nil, err
	}
	reach := g.Reachable()
	var diags []Diag
	diags = append(diags, lintUnreachable(g, reach)...)
	diags = append(diags, lintUninitReads(g, reach)...)
	diags = append(diags, lintDeadStores(g, reach)...)
	diags = append(diags, lintWriteR0(g, reach)...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].PC != diags[j].PC {
			return diags[i].PC < diags[j].PC
		}
		return diags[i].Pass < diags[j].Pass
	})
	return diags, nil
}

// lintUnreachable flags blocks no path from the entry reaches.
func lintUnreachable(g *CFG, reach []bool) []Diag {
	var diags []Diag
	for _, b := range g.Blocks {
		if reach[b.ID] {
			continue
		}
		diags = append(diags, Diag{
			Pass: "unreachable", PC: b.Start, Block: b.ID, Severity: SevWarn,
			Msg: fmt.Sprintf("block %d (pc %d..%d) is unreachable from the entry", b.ID, b.Start, b.End-1),
		})
	}
	return diags
}

// lintUninitReads flags reads of registers that are never written on any
// path from the entry — the value read is always the architectural zero,
// which is either a latent bug or should be spelled r0. The loader-preset
// thread id and thread count are exempt.
func lintUninitReads(g *CFG, reach []bool) []Diag {
	rd := NewReachingDefs(g)
	var diags []Diag
	var srcs []isa.Reg
	for _, b := range g.Blocks {
		if !reach[b.ID] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			srcs = g.Code[pc].SrcRegs(srcs[:0])
			seen := uint32(0)
			for _, r := range srcs {
				if r == 0 || r == prog.RegTID || r == prog.RegNTHR || seen&(1<<r) != 0 {
					continue
				}
				seen |= 1 << r
				defs := rd.DefsAt(pc, r)
				allEntry := true
				for _, d := range defs {
					if d != EntryDef {
						allEntry = false
						break
					}
				}
				if allEntry {
					diags = append(diags, Diag{
						Pass: "uninit-read", PC: pc, Block: b.ID, Severity: SevError,
						Msg: fmt.Sprintf("%v reads %v, which is never written on any path from the entry (always its initial zero)", g.Code[pc], r),
					})
				}
			}
		}
	}
	return diags
}

// lintDeadStores flags pure ALU register writes whose value is never read:
// the instruction has no side effect, so it is either dead code or a bug
// (memory operations are exempt — a load's cache traffic is an effect even
// when the loaded value is unused).
func lintDeadStores(g *CFG, reach []bool) []Diag {
	lv := NewLiveness(g)
	var diags []Diag
	for _, b := range g.Blocks {
		if !reach[b.ID] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Code[pc]
			if !in.Op.IsALU() {
				continue
			}
			r, ok := in.DstReg()
			if !ok || r == 0 {
				continue
			}
			if lv.LiveOutAt(pc)&(1<<r) == 0 {
				diags = append(diags, Diag{
					Pass: "dead-store", PC: pc, Block: b.ID, Severity: SevWarn,
					Msg: fmt.Sprintf("value of %v computed by %v is never read", r, in),
				})
			}
		}
	}
	return diags
}

// lintWriteR0 flags instructions that write the hardwired zero register:
// the write is silently discarded by the core.
func lintWriteR0(g *CFG, reach []bool) []Diag {
	var diags []Diag
	for _, b := range g.Blocks {
		if !reach[b.ID] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Code[pc]
			if r, ok := in.DstReg(); ok && r == 0 && in.Op != isa.NOP {
				diags = append(diags, Diag{
					Pass: "write-r0", PC: pc, Block: b.ID, Severity: SevError,
					Msg: fmt.Sprintf("%v writes r0; the result is discarded", in),
				})
			}
		}
	}
	return diags
}
