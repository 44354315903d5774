package workloads

import (
	"testing"

	"acr/internal/isa"
	"acr/internal/prog"
	"acr/internal/sim"
)

// region is one thread-partitioned data array as the program addresses it:
// thread t's part starts at base + t*stride.
type region struct{ base, stride int64 }

// addressedRegions recovers every thread-partitioned array from the code of
// a program built for the given thread count: partitionBase and the
// exchange patterns both emit "MULI r, idx, stride; ADDI r, r, base".
// Pairs on rAddr with a line stride address exchange slots; pairs scaling
// RegTID elsewhere whose span fits in data memory are partition bases (the
// span test drops seed arithmetic of the same shape).
func addressedRegions(p *prog.Program, threads int) (exchange, partitions []region) {
	seen := map[region]bool{}
	for pc := 0; pc+1 < len(p.Code); pc++ {
		mul, add := p.Code[pc], p.Code[pc+1]
		if mul.Op != isa.MULI || add.Op != isa.ADDI || add.Rd != mul.Rd || add.Rs != mul.Rd {
			continue
		}
		r := region{base: add.Imm, stride: mul.Imm}
		if seen[r] {
			continue
		}
		seen[r] = true
		switch {
		case mul.Rd == rAddr && mul.Imm == lineWords:
			exchange = append(exchange, r)
		case mul.Rs == prog.RegTID && r.base+int64(threads)*r.stride <= int64(p.DataWords):
			partitions = append(partitions, r)
		}
	}
	return exchange, partitions
}

// TestExchangeRegionCoversEveryThread builds all eight kernels past 64
// threads and checks that every thread's exchange slot lies inside the
// program's data memory and inside no other thread-partitioned array. The
// coordination patterns index the exchange region by thread id, so a
// region sized for 64 threads makes higher thread ids address past it.
func TestExchangeRegionCoversEveryThread(t *testing.T) {
	for _, bench := range All() {
		for _, threads := range []int{96, 128} {
			p, err := bench.Build(threads, ClassS)
			if err != nil {
				t.Fatalf("%s/%d: %v", bench.Name, threads, err)
			}
			exchange, partitions := addressedRegions(p, threads)
			if len(exchange) == 0 {
				t.Fatalf("%s/%d: no exchange-slot addressing found", bench.Name, threads)
			}
			if len(partitions) == 0 {
				t.Fatalf("%s/%d: no partitioned arrays found", bench.Name, threads)
			}
			for _, ex := range exchange {
				lo, hi := ex.base, ex.base+int64(threads)*lineWords
				if hi > int64(p.DataWords) {
					t.Errorf("%s/%d: exchange slots [%d,%d) end past data memory (%d words)",
						bench.Name, threads, lo, hi, p.DataWords)
				}
				for _, pt := range partitions {
					plo, phi := pt.base, pt.base+int64(threads)*pt.stride
					if lo < phi && plo < hi {
						t.Errorf("%s/%d: exchange slots [%d,%d) overlap partitioned array [%d,%d)",
							bench.Name, threads, lo, hi, plo, phi)
					}
				}
			}
		}
	}
}

// TestCGRunsPast64Threads runs cg, whose exchange region is its last data
// array, at 96 threads and class S to completion.
func TestCGRunsPast64Threads(t *testing.T) {
	if testing.Short() {
		t.Skip("96-core class S run")
	}
	const threads = 96
	bench, err := ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build(threads, ClassS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.DefaultConfig(threads), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 || res.Cycles == 0 {
		t.Errorf("empty run: %+v", res)
	}
}
