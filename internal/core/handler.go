package core

import (
	"acr/internal/energy"
	"acr/internal/slice"
)

// Config parameterises ACR.
type Config struct {
	// Threshold is the maximum Slice length in instructions; Slices
	// exceeding it are not embedded (paper §III-A, default 10; the paper
	// lowers it to 5 for is). Used by PolicyThreshold.
	Threshold int
	// MapCapacity is the number of records the AddrMap can hold.
	MapCapacity int
	// Policy selects the Slice embedding decision; the zero value is the
	// paper's greedy length threshold.
	Policy Policy
	// Cost parameterises PolicyCost; the zero value is replaced by
	// DefaultCostModel.
	Cost CostModel
	// SitePlan, when non-nil, is a static per-site policy indexed by the
	// ASSOC-ADDR instruction's PC (the auto strategy's analysis pass
	// produces it). Plan values: -1 prunes the site (the association is
	// dropped before any compile work, as if the compiler had not embedded
	// the instruction), 0 applies the dynamic policy unchanged, and a
	// positive value overrides the Slice-length cap for that site.
	// Pruning and boosting are cost policies only — the runtime compile
	// still validates every accepted Slice — so a plan can never make
	// recovery unsound, only cheaper or more amnesic.
	SitePlan []int32
}

// DefaultConfig returns the paper's default ACR parameters. The AddrMap
// capacity bounds how many unique updated addresses per interval can be
// tracked (§III-C); 4096 records per core is ample for the evaluated
// checkpoint periods while remaining an on-chip-plausible structure.
func DefaultConfig(nCores int) Config {
	return Config{Threshold: 10, MapCapacity: 4096 * nCores}
}

// Handler is the ACR control logic: the checkpoint handler and recovery
// handler of paper §III, sharing the AddrMap (Fig. 5).
type Handler struct {
	cfg     Config
	tracker *slice.Tracker
	addrMap *AddrMap
	meter   *energy.Meter
	scratch []int64
}

// NewHandler builds the ACR handler over the machine's recipe tracker.
func NewHandler(cfg Config, tracker *slice.Tracker, meter *energy.Meter) *Handler {
	if cfg.Policy == PolicyCost && cfg.Cost.Energy == nil {
		cfg.Cost = DefaultCostModel()
	}
	return &Handler{
		cfg:     cfg,
		tracker: tracker,
		addrMap: NewAddrMap(cfg.MapCapacity),
		meter:   meter,
		scratch: make([]int64, 0, 128),
	}
}

// AddrMap exposes the handler's map (stats, tests).
func (h *Handler) AddrMap() *AddrMap { return h.addrMap }

// Threshold returns the configured Slice-length threshold.
func (h *Handler) Threshold() int { return h.cfg.Threshold }

// MaxSliceLen returns the largest Slice-length cap any ASSOC-ADDR site
// compiles under: the policy's cap (Threshold, or Cost.MaxLen under the cost
// policy), raised by positive SitePlan entries. No recipe deeper than it can
// ever be embedded (slice.Tracker.LimitDepth).
func (h *Handler) MaxSliceLen() int {
	n := h.policyCap()
	for _, plan := range h.cfg.SitePlan {
		n = max(n, int(plan))
	}
	return n
}

// policyCap is the Slice-length cap of a site the SitePlan leaves alone.
func (h *Handler) policyCap() int {
	if h.cfg.Policy == PolicyCost {
		return h.cfg.Cost.MaxLen
	}
	return h.cfg.Threshold
}

// OnAssoc processes an ASSOC-ADDR: it compiles the stored value's Slice
// and, if the embedding policy accepts it, records the association. The
// AddrMap insertion is buffered off the critical path, so no extra stall is
// returned (the instruction's own issue slot is charged by the core).
//
// The compile reuses a Compiled shell recycled from a freed AddrMap record
// when one is available, so the steady-state association path performs no
// heap allocation.
func (h *Handler) OnAssoc(core, pc int, addr int64, recipe slice.Ref) int64 {
	cap := h.policyCap()
	if h.cfg.SitePlan != nil && pc >= 0 && pc < len(h.cfg.SitePlan) {
		switch plan := h.cfg.SitePlan[pc]; {
		case plan < 0:
			// Statically pruned site: the analysis proved this store's
			// Slice can never be embedded (or never pays off), so the
			// association is dropped before the AddrMap is even touched.
			h.addrMap.stats.PrunedAssocs++
			return 0
		case plan > 0:
			h.addrMap.stats.BoostedAssocs++
			cap = int(plan)
		}
	}
	h.meter.Add(energy.AddrMapOp, 1)
	// Always hand CompileInto a shell (recycled when available) so a
	// failing compile — the common case for over-threshold Slices — can
	// return its shell to the pool instead of leaking a fresh allocation.
	into := h.addrMap.takeRecycled()
	if into == nil {
		into = &slice.Compiled{}
	}
	sl, err := h.tracker.CompileInto(core, into, recipe, cap)
	if err != nil {
		h.addrMap.recycleSlice(into)
		h.addrMap.stats.SliceTooLong++
		return 0
	}
	if h.cfg.Policy == PolicyCost && !h.cfg.Cost.Embeddable(sl) {
		h.addrMap.recycleSlice(sl)
		h.addrMap.stats.CostRejected++
		return 0
	}
	// Buffer the input operands: one slice-buffer write per input. The
	// insertion itself is buffered off the critical path (the ASSOC-ADDR
	// instruction's issue slot is already charged by the core).
	h.meter.Add(energy.SliceBufOp, uint64(sl.NumInputs()))
	if !h.addrMap.Assoc(core, addr, sl) {
		h.addrMap.recycleSlice(sl)
	}
	return 0
}

// Omittable is the checkpoint-handler decision (Fig. 4a): given the first
// write-back to addr in this interval, whose pre-store value is old, it
// returns the AddrMap record proving old recomputable, or nil if the value
// must be logged conventionally. The returned record is NOT yet pinned;
// the checkpoint log pins it when recording the amnesic entry.
func (h *Handler) Omittable(addr, old int64) *Record {
	h.meter.Add(energy.AddrMapOp, 1)
	h.meter.Add(energy.HandlerOp, 1)
	rec := h.addrMap.Lookup(addr, old, h.scratch)
	if rec != nil {
		h.addrMap.CountOmitted()
	}
	return rec
}

// Recompute regenerates an omitted value along its Slice (Fig. 4b),
// charging ALU and buffer energy, and returns the value together with the
// stall cycles the recomputation occupies on the record's core (one cycle
// per Slice instruction plus one per buffered input, on the in-order
// core's scratchpad).
func (h *Handler) Recompute(rec *Record) (val int64, cycles int64) {
	sl := rec.Slice
	h.meter.Add(energy.AddrMapOp, 1)
	h.meter.Add(energy.HandlerOp, 1)
	h.meter.Add(energy.SliceBufOp, uint64(sl.NumInputs()))
	h.meter.Add(energy.IntOp, uint64(sl.IntOps()))
	h.meter.Add(energy.FloatOp, uint64(sl.FloatOps()))
	h.addrMap.CountRecomputed()
	return sl.Eval(h.scratch), int64(sl.Len() + sl.NumInputs() + 1)
}

// OnCheckpoint advances the AddrMap generation when a checkpoint is
// established (records older than two checkpoints age out, §III-A).
func (h *Handler) OnCheckpoint() { h.addrMap.NewGeneration() }

// OnRecovery clears the AddrMap after a roll-back: its contents are rebuilt
// as execution re-runs from the restored checkpoint.
func (h *Handler) OnRecovery() { h.addrMap.Reset() }
