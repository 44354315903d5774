package main

import (
	"fmt"
	"math/rand"
	"time"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/cpu"
	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/slice"
	"acr/internal/workloads"
)

// The layer drivers time the public functions of mem, core, slice and ckpt
// directly, outside any machine. Each is sized from the workload: its core
// count and the largest data image among its kernels. Each driver repeats
// its fixed batch driverReps times and reports the median per call.
const driverReps = 5

// sink keeps the drivers' results observable so no call can be elided.
var sink int64

type layerDriver struct {
	cores int
	words int
	seed  int64
	kinds []ckpt.Kind
}

func newLayerDriver(w workload, seed int64) (*layerDriver, error) {
	d := &layerDriver{cores: w.threads, seed: seed, kinds: w.kinds}
	for _, k := range workloads.All() {
		p, err := k.Build(w.threads, workloads.ClassS)
		if err != nil {
			return nil, err
		}
		if p.DataWords > d.words {
			d.words = p.DataWords
		}
	}
	return d, nil
}

// run returns the per-call timings by metric name.
func (d *layerDriver) run() (map[string]float64, error) {
	out := make(map[string]float64)
	var load, store, assoc, lookup, track, compile, establish, rollback []float64
	for rep := 0; rep < driverReps; rep++ {
		rng := rand.New(rand.NewSource(d.seed*31 + int64(rep)))
		l, s, err := d.memRep(rng)
		if err != nil {
			return nil, err
		}
		load, store = append(load, l), append(store, s)
		a, lk := d.addrMapRep(rng)
		assoc, lookup = append(assoc, a), append(lookup, lk)
		t, c := d.sliceRep(rng)
		track, compile = append(track, t), append(compile, c)
		var est, rb []float64
		for _, k := range d.kinds {
			e, r, err := d.ckptRep(rng, k)
			if err != nil {
				return nil, err
			}
			est, rb = append(est, e), append(rb, r)
		}
		establish = append(establish, sum(est)/float64(len(est)))
		rollback = append(rollback, sum(rb)/float64(len(rb)))
	}
	out["mem.load_ns"] = median(load)
	out["mem.store_ns"] = median(store)
	out["core.assoc_ns"] = median(assoc)
	out["core.lookup_ns"] = median(lookup)
	out["slice.track_ns"] = median(track)
	out["slice.compile_ns"] = median(compile)
	out["ckpt.establish_us"] = median(establish)
	out["ckpt.rollback_us"] = median(rollback)
	return out, nil
}

// access draws a data address for core: mostly inside the core's own
// partition of the data image, one in eight anywhere (shared data).
func (d *layerDriver) access(rng *rand.Rand, core int) int64 {
	if rng.Intn(8) == 0 {
		return int64(rng.Intn(d.words))
	}
	part := d.words / d.cores
	if part < 1 {
		part = 1
	}
	return int64((core*part + rng.Intn(part)) % d.words)
}

func perCallNS(start time.Time, calls int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// memRep times mem.System.Load and Store over a fresh system.
func (d *layerDriver) memRep(rng *rand.Rand) (loadNS, storeNS float64, err error) {
	const n = 1 << 17
	sys, err := mem.NewSystem(mem.DefaultConfig(), d.cores, d.words, energy.NewMeter(energy.Default22nm()))
	if err != nil {
		return 0, 0, fmt.Errorf("mem driver: %w", err)
	}
	addrs := make([]int64, n)
	for i := range addrs {
		addrs[i] = d.access(rng, i%d.cores)
	}
	t0 := time.Now()
	for i, a := range addrs {
		v, c := sys.Load(i%d.cores, a)
		sink += v + c
	}
	loadNS = perCallNS(t0, n)
	t0 = time.Now()
	for i, a := range addrs {
		old, _, c := sys.Store(i%d.cores, a, int64(i))
		sink += old + c
	}
	return loadNS, perCallNS(t0, n), nil
}

// addrMapRep times core.AddrMap.Assoc of distinct addresses into a map of
// the runner's capacity (4096 records per core), then a hitting Lookup of
// each.
func (d *layerDriver) addrMapRep(rng *rand.Rand) (assocNS, lookupNS float64) {
	capacity := 4096 * d.cores
	n := capacity / 2
	if n > d.words {
		n = d.words
	}
	tr := slice.NewTracker(1)
	tr.OnLoad(0, 1, 7)
	tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 1, Imm: 5})
	tr.OnALU(0, isa.Instr{Op: isa.MUL, Rd: 3, Rs: 2, Rt: 1})
	sl, ok := tr.Compile(0, tr.Recipe(0, 3), 10)
	if !ok {
		panic("addrmap driver: fixed three-op slice failed to compile")
	}
	scratch := make([]int64, 64)
	val := sl.Eval(scratch)
	// One address from each of n equal buckets of the data image, in
	// random order: distinct, so no association supersedes another.
	bucket := d.words / n
	addrs := make([]int64, n)
	for i := range addrs {
		addrs[i] = int64(i*bucket + rng.Intn(bucket))
	}
	rng.Shuffle(n, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	m := acr.NewAddrMap(capacity)
	t0 := time.Now()
	for i, a := range addrs {
		m.Assoc(i%d.cores, a, sl)
	}
	assocNS = perCallNS(t0, n)
	t0 = time.Now()
	for _, a := range addrs {
		if m.Lookup(a, val, scratch) != nil {
			sink++
		}
	}
	return assocNS, perCallNS(t0, n)
}

var aluOps = []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.ADDI, isa.FADD, isa.FMUL}

// sliceRep times slice.Tracker tracking (OnLoad/OnALU) of a random
// instruction stream on every core, and CompileInto of every register's
// recipe at the Slice-length threshold after each round.
func (d *layerDriver) sliceRep(rng *rand.Rand) (trackNS, compileNS float64) {
	const rounds, perReg = 16, 6
	tr := slice.NewTracker(d.cores)
	var into slice.Compiled
	var trackDur, compileDur time.Duration
	tracked, compiled := 0, 0
	instrs := make([]isa.Instr, 0, d.cores*isa.NumRegs*perReg)
	for r := 0; r < rounds; r++ {
		instrs = instrs[:0]
		for i := 0; i < cap(instrs); i++ {
			in := isa.Instr{
				Op: aluOps[rng.Intn(len(aluOps))],
				Rd: isa.Reg(1 + rng.Intn(isa.NumRegs-1)),
				Rs: isa.Reg(1 + rng.Intn(isa.NumRegs-1)),
				Rt: isa.Reg(1 + rng.Intn(isa.NumRegs-1)),
			}
			if rng.Intn(4) == 0 {
				in.Op = isa.LD // stands for a load: tracked with OnLoad
				in.Imm = rng.Int63()
			}
			instrs = append(instrs, in)
		}
		t0 := time.Now()
		for i, in := range instrs {
			core := i % d.cores
			if in.Op == isa.LD {
				tr.OnLoad(core, in.Rd, in.Imm)
			} else {
				tr.OnALU(core, in)
			}
		}
		trackDur += time.Since(t0)
		tracked += len(instrs)

		refs := make([]slice.Ref, 0, d.cores*(isa.NumRegs-1))
		for c := 0; c < d.cores; c++ {
			for reg := 1; reg < isa.NumRegs; reg++ {
				refs = append(refs, tr.Recipe(c, isa.Reg(reg)))
			}
		}
		t0 = time.Now()
		for i, ref := range refs {
			if sl, err := tr.CompileInto(i/(isa.NumRegs-1), &into, ref, 10); err == nil {
				sink += int64(sl.Len())
			}
		}
		compileDur += time.Since(t0)
		compiled += len(refs)
	}
	return float64(trackDur.Nanoseconds()) / float64(tracked), float64(compileDur.Nanoseconds()) / float64(compiled)
}

// ckptRep times ckpt.Manager.Establish after each of several intervals of
// 256 stores per core (half of them associated with a recomputable Slice under
// the amnesic strategy), then one Rollback to the newest checkpoint.
func (d *layerDriver) ckptRep(rng *rand.Rand, kind ckpt.Kind) (establishUS, rollbackUS float64, err error) {
	const intervals = 6
	meter := energy.NewMeter(energy.Default22nm())
	sys, err := mem.NewSystem(mem.DefaultConfig(), d.cores, d.words, meter)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt driver: %w", err)
	}
	var tr *slice.Tracker
	var h *acr.Handler
	if kind.Amnesic() {
		tr = slice.NewTracker(d.cores)
		h = acr.NewHandler(acr.Config{Threshold: 10, MapCapacity: 4096 * d.cores}, tr, meter)
	}
	arch := make([]cpu.ArchState, d.cores)
	mgr, err := ckpt.NewManager(kind, ckpt.Global, sys, meter, h, arch)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt driver: %w", err)
	}
	stores := 256 * d.cores
	interval := func() {
		for i := 0; i < stores; i++ {
			core := i % d.cores
			addr := d.access(rng, core)
			val := rng.Int63n(1 << 30)
			assoc := tr != nil && i%2 == 0
			if assoc {
				tr.OnALU(core, isa.Instr{Op: isa.LI, Rd: 1, Imm: val})
			}
			old, first, _ := sys.Store(core, addr, val)
			if first {
				mgr.OnFirstStore(core, addr, old)
			}
			if assoc {
				h.OnAssoc(core, 0, addr, tr.Recipe(core, 1))
			}
		}
	}
	var est time.Duration
	now := int64(0)
	for k := 0; k < intervals; k++ {
		interval()
		now += 100_000
		t0 := time.Now()
		mgr.Establish(now, arch)
		est += time.Since(t0)
	}
	interval()
	target, err := mgr.SafeTarget(now + 1)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt driver: %w", err)
	}
	t0 := time.Now()
	if _, err := mgr.Rollback(target, d.cores); err != nil {
		return 0, 0, fmt.Errorf("ckpt driver: %w", err)
	}
	rb := time.Since(t0)
	return float64(est.Nanoseconds()) / 1e3 / intervals, float64(rb.Nanoseconds()) / 1e3, nil
}
