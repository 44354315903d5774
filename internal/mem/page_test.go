package mem

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"acr/internal/energy"
)

// flatSystem is the reference model for the paged System: the directory
// state as flat arrays indexed by word address or global line, as the
// plane kept it before it was paged. Timing comes from a second System used
// only for its cache stacks, which the paging does not touch.
type flatSystem struct {
	timing       *System
	lineWords    int64
	dram         []int64
	logBits      []bool
	lastWriter   []int32
	lastWriteIvl []int32
	curInterval  int32
	comm         [][]bool
	commEdges    int64
	logBitSets   int64
}

func newFlatSystem(cfg Config, nCores, words int) *flatSystem {
	lines := (words + cfg.LineWords - 1) / cfg.LineWords
	f := &flatSystem{
		timing:       MustNewSystem(cfg, nCores, words, energy.NewMeter(nil)),
		lineWords:    int64(cfg.LineWords),
		dram:         make([]int64, words),
		logBits:      make([]bool, words),
		lastWriter:   make([]int32, lines),
		lastWriteIvl: make([]int32, lines),
		comm:         make([][]bool, nCores),
	}
	for c := range f.comm {
		f.comm[c] = make([]bool, nCores)
	}
	return f
}

func (f *flatSystem) observe(core int, line int64) {
	lw := f.lastWriter[line]
	if lw != 0 && int(lw-1) != core && f.lastWriteIvl[line] == f.curInterval {
		f.comm[core][lw-1] = true
		f.comm[lw-1][core] = true
		f.commEdges++
	}
}

func (f *flatSystem) load(core int, addr int64) (val, cycles int64) {
	line := addr / f.lineWords
	cycles = f.timing.access(core, line, false)
	f.observe(core, line)
	return f.dram[addr], cycles
}

func (f *flatSystem) store(core int, addr, val int64) (old int64, first bool, cycles int64) {
	line := addr / f.lineWords
	cycles = f.timing.access(core, line, true)
	f.observe(core, line)
	old = f.dram[addr]
	f.dram[addr] = val
	if !f.logBits[addr] {
		f.logBits[addr] = true
		first = true
		f.logBitSets++
	}
	f.lastWriter[line] = int32(core) + 1
	f.lastWriteIvl[line] = f.curInterval
	return old, first, cycles
}

func (f *flatSystem) newInterval(group CoreSet, allCores bool) {
	for a := range f.logBits {
		w := f.lastWriter[int64(a)/f.lineWords]
		if allCores || (w != 0 && group.Has(int(w-1))) {
			f.logBits[a] = false
		}
	}
	for c := range f.comm {
		for w := range f.comm[c] {
			if allCores || group.Has(c) || group.Has(w) {
				f.comm[c][w] = false
			}
		}
	}
	f.curInterval++
}

func (f *flatSystem) dirtyWords() []int64 {
	var out []int64
	for a, set := range f.logBits {
		if set {
			out = append(out, int64(a))
		}
	}
	return out
}

// groups returns the connected components of the comm graph, each as its
// ascending member list, ordered by lowest member.
func (f *flatSystem) groups() [][]int {
	n := len(f.comm)
	seen := make([]bool, n)
	var out [][]int
	for c := 0; c < n; c++ {
		if seen[c] {
			continue
		}
		seen[c] = true
		group := []int{c}
		for i := 0; i < len(group); i++ {
			for w, edge := range f.comm[group[i]] {
				if edge && !seen[w] {
					seen[w] = true
					group = append(group, w)
				}
			}
		}
		slices.Sort(group)
		out = append(out, group)
	}
	return out
}

func (f *flatSystem) stats() Stats {
	st := f.timing.Stats()
	st.CommEdges = f.commEdges
	st.LogBitSets = f.logBitSets
	return st
}

// fuzzInput hands out the fuzzer's bytes, then zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() int { return int(in.next()) | int(in.next())<<8 }

// addr picks an address biased to the edges: the first and last word,
// page boundaries, and a few out of range.
func (in *fuzzInput) addr(words int) int64 {
	switch in.next() % 16 {
	case 0:
		return 0
	case 1:
		return int64(words - 1)
	case 2:
		return int64(words + int(in.next()%3)*pageWords)
	case 3:
		return -1 - int64(in.next())
	case 4, 5:
		a := int64(in.u16()%(words/pageWords+1))*pageWords - int64(in.next()%2)
		return min(max(a, 0), int64(words-1))
	}
	return int64(in.u16() % words)
}

func (in *fuzzInput) val() int64 {
	if in.next()%3 == 0 {
		return 0
	}
	return int64(int8(in.next())) << (in.next() % 48)
}

// group picks an arbitrary set of cores. ckpt begins local intervals only
// for whole CommGroups components, but NewInterval keeps the graph
// symmetric for any group.
func (in *fuzzInput) group(nCores int) CoreSet {
	g := NewCoreSet(nCores)
	for c := 0; c < nCores; c++ {
		if in.next()%2 == 1 {
			g.Add(c)
		}
	}
	return g
}

// addrPanic runs fn and returns the *AddressError it panicked with, or nil.
func addrPanic(fn func()) (err *AddressError) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*AddressError)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	fn()
	return nil
}

// FuzzPagedSystem drives random access sequences through the paged System
// and the flat reference and requires every observable to agree: loaded
// values, first-store flags and latencies, the dirty-word scan, snapshots
// and their clones, Stats, CommSets and CommGroups, which must partition
// the cores.
func FuzzPagedSystem(f *testing.F) {
	f.Add([]byte{0x34, 0x12, 3, 3, 1, 2, 0, 5, 0, 0, 1, 7, 6, 4, 1, 8, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		cfg := DefaultConfig()
		cfg.LineWords = 1 << (in.next() % 10)
		nCores := 1 + int(in.next())%70
		words := 1 + in.u16()%(3*pageWords+37)
		s := MustNewSystem(cfg, nCores, words, energy.NewMeter(nil))
		ref := newFlatSystem(cfg, nCores, words)
		// images[0] is the latest snapshot and images[1] its clone; each
		// is then patched independently, as the differential strategy's
		// retained images are.
		var images [2]*Image
		var refImages [2][]int64

		inRange := func(a int64) bool { return a >= 0 && a < int64(words) }
		checkPanic := func(op string, a int64, fn func()) bool {
			t.Helper()
			err := addrPanic(fn)
			if inRange(a) != (err == nil) {
				t.Fatalf("%s(%d) on %d words: AddressError = %v", op, a, words, err)
			}
			return err == nil
		}

		for step := 0; len(in) > 0 && step < 2000; step++ {
			switch op := in.next() % 9; op {
			case 0, 1:
				core, a := int(in.next())%nCores, in.addr(words)
				var v, c int64
				if checkPanic("Load", a, func() { v, c = s.Load(core, a) }) {
					if wv, wc := ref.load(core, a); v != wv || c != wc {
						t.Fatalf("step %d: Load(%d, %d) = %d, %d cycles; want %d, %d", step, core, a, v, c, wv, wc)
					}
				}
			case 2, 3:
				core, a, val := int(in.next())%nCores, in.addr(words), in.val()
				var old, c int64
				var first bool
				if checkPanic("Store", a, func() { old, first, c = s.Store(core, a, val) }) {
					if wo, wf, wc := ref.store(core, a, val); old != wo || first != wf || c != wc {
						t.Fatalf("step %d: Store(%d, %d, %d) = %d, %v, %d; want %d, %v, %d",
							step, core, a, val, old, first, c, wo, wf, wc)
					}
				}
			case 4:
				a, val := in.addr(words), in.val()
				if checkPanic("WriteWord", a, func() { s.WriteWord(a, val) }) {
					ref.dram[a] = val
				}
			case 5:
				if in.next()%2 == 0 {
					s.NewInterval(s.AllCores(), true)
					ref.newInterval(nil, true)
				} else {
					g := in.group(nCores)
					s.NewInterval(g, false)
					ref.newInterval(g, false)
				}
			case 6:
				got := s.AppendDirtyWords(nil)
				if want := ref.dirtyWords(); !slices.Equal(got, want) {
					t.Fatalf("step %d: AppendDirtyWords = %v, want %v", step, got, want)
				}
			case 7:
				snap := s.Snapshot()
				for a := int64(0); a < int64(words); a++ {
					if snap.Word(a) != ref.dram[a] {
						t.Fatalf("step %d: snapshot word %d = %d, want %d", step, a, snap.Word(a), ref.dram[a])
					}
				}
				images = [2]*Image{snap, snap.Clone()}
				refImages = [2][]int64{slices.Clone(ref.dram), slices.Clone(ref.dram)}
			case 8:
				if images[0] == nil {
					continue
				}
				i, a, val := in.next()%2, int64(in.u16()%words), in.val()
				images[i].SetWord(a, val)
				refImages[i][a] = val
			}
			if a := in.addr(words); inRange(a) && s.ReadWord(a) != ref.dram[a] {
				t.Fatalf("step %d: ReadWord(%d) = %d, want %d", step, a, s.ReadWord(a), ref.dram[a])
			}
		}

		for a := int64(0); a < int64(words); a++ {
			if s.ReadWord(a) != ref.dram[a] {
				t.Fatalf("word %d = %d, want %d", a, s.ReadWord(a), ref.dram[a])
			}
			for i, img := range images {
				if img != nil && img.Word(a) != refImages[i][a] {
					t.Fatalf("image %d word %d = %d, want %d", i, a, img.Word(a), refImages[i][a])
				}
			}
		}
		if got, want := s.Stats(), ref.stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Stats = %+v, want %+v", got, want)
		}
		for c := 0; c < nCores; c++ {
			set := s.CommSet(c)
			for w := 0; w < nCores; w++ {
				if set.Has(w) != ref.comm[c][w] {
					t.Fatalf("CommSet(%d).Has(%d) = %v, want %v", c, w, set.Has(w), ref.comm[c][w])
				}
			}
		}
		var got [][]int
		seen := NewCoreSet(nCores)
		for _, g := range s.CommGroups() {
			var members []int
			g.ForEach(func(c int) {
				if seen.Has(c) {
					t.Fatalf("core %d in two CommGroups: %v", c, got)
				}
				seen.Add(c)
				members = append(members, c)
			})
			got = append(got, members)
		}
		if seen.Count() != nCores {
			t.Fatalf("CommGroups %v do not cover %d cores", got, nCores)
		}
		if want := ref.groups(); !reflect.DeepEqual(got, want) {
			t.Fatalf("CommGroups = %v, want %v", got, want)
		}
	})
}

// TestPagedAccessAllocs pins the access path allocation-free: a load from
// a page no store has reached allocates nothing, and once a page exists
// neither loads nor stores to it allocate.
func TestPagedAccessAllocs(t *testing.T) {
	s, _ := newTestSystem(4, 4*pageWords)
	if n := testing.AllocsPerRun(100, func() { s.Load(1, 3*pageWords+5) }); n != 0 {
		t.Errorf("Load of an untouched page: %v allocs, want 0", n)
	}
	if s.pages[3] != nil {
		t.Fatal("a load allocated its page")
	}
	s.Store(0, 17, 1)
	if n := testing.AllocsPerRun(100, func() { s.Load(2, 17) }); n != 0 {
		t.Errorf("Load of a touched page: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Store(3, 18, 2) }); n != 0 {
		t.Errorf("Store to a touched page: %v allocs, want 0", n)
	}
}

// TestZeroWriteLeavesPageUntouched: a functional write of zero to a page
// no store has reached keeps it unallocated; a nonzero one allocates it.
func TestZeroWriteLeavesPageUntouched(t *testing.T) {
	s, _ := newTestSystem(1, 2*pageWords)
	s.WriteWord(pageWords+3, 0)
	if s.pages[1] != nil || len(s.touched) != 0 {
		t.Fatal("WriteWord of zero allocated a page")
	}
	s.WriteWord(pageWords+3, 5)
	if s.pages[1] == nil || !slices.Equal(s.touched, []int32{1}) {
		t.Fatalf("WriteWord of 5 did not allocate page 1: touched %v", s.touched)
	}
}

func TestLineWordsMustDividePage(t *testing.T) {
	for _, lw := range []int{0, -8, 3, 12, 2 * pageWords} {
		cfg := DefaultConfig()
		cfg.LineWords = lw
		_, err := NewSystem(cfg, 1, 1024, energy.NewMeter(nil))
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("LineWords %d: expected *ConfigError, got %v", lw, err)
		}
	}
}
