package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if q, v, ok := tail(xs); !ok || q != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = p%d %v %v, want p90 90 true", q, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples should have no qualifying percentile")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack  []string
		module string
		gc     bool
	}{
		{[]string{"math/bits.Len64", "acr/internal/mem.(*Cache).Access", "runtime.main"}, "mem", false},
		{[]string{"acr/internal/slice.(*Tracker).OnALU", "acr/internal/cpu.(*Core).Step"}, "slice", false},
		{[]string{"runtime.mallocgc", "acr/internal/sim.New"}, "go", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go", true},
		{[]string{"acr/internal/energy.(*Meter).Add"}, "other", false},
	}
	for _, c := range cases {
		m, gc := classify(c.stack)
		if m != c.module || gc != c.gc {
			t.Errorf("classify(%v) = %s %v, want %s %v", c.stack, m, gc, c.module, c.gc)
		}
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink += x
}

// TestAttributionDecodesProfile checks the protobuf decoder on a real
// runtime/pprof CPU profile: the samples of a busy loop in this package
// are charged to "other".
func TestAttributionDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.totalNS == 0 {
		t.Fatal("profile decoded to no samples")
	}
	if s := a.share("other"); s < 50 {
		t.Fatalf("busy loop's share = %.1f%%, want most of the samples; by module %v", s, a.moduleNS)
	}
}
