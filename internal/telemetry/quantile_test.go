package telemetry

import (
	"math"
	"testing"
)

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []uint64{2, 2, 2, 0} // final entry = +Inf overflow

	cases := []struct {
		q    float64
		want float64
	}{
		{0, 0},     // first bucket interpolates from 0
		{0.5, 1.5}, // rank 3 of 6 → halfway through (1,2]
		{1, 4},     // rank 6 → top of (2,4]
		{1.0 / 6, 0.5},
	}
	for _, c := range cases {
		got, ok := HistQuantile(bounds, counts, c.q)
		if !ok {
			t.Fatalf("q=%g: unexpectedly empty", c.q)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
}

func TestHistQuantileOverflowClamps(t *testing.T) {
	got, ok := HistQuantile([]float64{1, 2, 4}, []uint64{0, 0, 0, 5}, 0.5)
	if !ok || got != 4 {
		t.Fatalf("overflow-only histogram: got %g ok=%v, want 4 (largest finite bound)", got, ok)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	if v, ok := HistQuantile([]float64{1, 2, 4}, []uint64{0, 0, 0, 0}, 0.5); ok || v != 0 {
		t.Fatalf("empty histogram: got %g ok=%v, want 0 false", v, ok)
	}
	if v, ok := HistQuantile(nil, nil, 0.5); ok || v != 0 {
		t.Fatalf("nil histogram: got %g ok=%v, want 0 false", v, ok)
	}
}

func TestHistQuantileClampsQ(t *testing.T) {
	bounds := []float64{1, 2}
	counts := []uint64{1, 1, 0}
	lo, _ := HistQuantile(bounds, counts, -3)
	want0, _ := HistQuantile(bounds, counts, 0)
	if lo != want0 {
		t.Errorf("q<0 should clamp to 0: got %g, want %g", lo, want0)
	}
	hi, _ := HistQuantile(bounds, counts, 7)
	want1, _ := HistQuantile(bounds, counts, 1)
	if hi != want1 {
		t.Errorf("q>1 should clamp to 1: got %g, want %g", hi, want1)
	}
}
