package main

import (
	"fmt"
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest integer percentile q (nearest rank) that has at
// least ten samples above it, with its value; ok is false when there are
// too few samples for any percentile to qualify (fewer than 11).
func tail(xs []float64) (q int, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for q = 99; q >= 1; q-- {
		rank := int(math.Ceil(float64(q) * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		beyond := 0
		for _, x := range s[rank-1:] {
			if x > s[rank-1] {
				beyond++
			}
		}
		if beyond >= 10 {
			return q, s[rank-1], true
		}
	}
	return 0, 0, false
}

// describe renders a timing distribution: median, tail percentile and count.
func describe(xs []float64, unit string) string {
	out := fmt.Sprintf("median %.6g %s, n=%d", median(xs), unit, len(xs))
	if q, v, ok := tail(xs); ok {
		return out + fmt.Sprintf(", p%d %.6g %s", q, v, unit)
	}
	return out + ", no percentile has 10 samples beyond it"
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
