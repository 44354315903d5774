// Package acr_test holds the executable form of EXPERIMENTS.md's "Shape
// agreement summary": the paper's orderings, signatures and crossovers,
// checked on the class-S tables `acrbench -exp all -class S` prints.
package acr_test

import (
	"math"
	"strconv"
	"testing"

	"acr/internal/bench"
	"acr/internal/stats"
	"acr/internal/workloads"
)

// rows runs one experiment generator and returns its rows keyed by the
// first column, every other cell parsed as a number (NaN where the row
// leaves it empty, as the "avg" rows do).
func rows(t *testing.T, gen func(bench.Params) (*stats.Table, error), p bench.Params) map[string][]float64 {
	t.Helper()
	tab, err := gen(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]float64, len(tab.Rows))
	for _, row := range tab.Rows {
		vals := make([]float64, len(row)-1)
		for i, cell := range row[1:] {
			vals[i] = math.NaN()
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: row %s: %v", tab.Title, row[0], err)
			}
			vals[i] = v
		}
		out[row[0]] = vals
	}
	for _, name := range bench.BenchNames() {
		if out[name] == nil {
			t.Fatalf("%s: no row for %s", tab.Title, name)
		}
	}
	return out
}

// extremes returns the benchmarks with the largest and the smallest value
// in column col.
func extremes(tab map[string][]float64, col int) (max, min string) {
	for _, name := range bench.BenchNames() {
		if max == "" || tab[name][col] > tab[max][col] {
			max = name
		}
		if min == "" || tab[name][col] < tab[min][col] {
			min = name
		}
	}
	return max, min
}

// TestPaperShapes regenerates Figs. 6-9, Table II and Fig. 13 at class S
// from one shared Runner and checks the shapes the reproduction claims.
// Figs. 11 and 12 are left out: Fig. 11 is not monotone in the error count
// at class S, and Fig. 12 costs more than the rest together.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the class-S paper tables")
	}
	r := bench.NewRunner()
	p := bench.Params{Threads: 8, Class: workloads.ClassS}

	// Figs. 6-8: is gains most from ReCkpt and cg least (column redNE%,
	// the first of Fig. 8).
	for _, fig := range []struct {
		name  string
		gen   func(bench.Params) (*stats.Table, error)
		redNE int
	}{{"Fig6", r.Fig6, 4}, {"Fig7", r.Fig7, 4}, {"Fig8", r.Fig8, 0}} {
		t.Run(fig.name, func(t *testing.T) {
			tab := rows(t, fig.gen, p)
			if max, min := extremes(tab, fig.redNE); max != "is" || min != "cg" {
				t.Errorf("redNE: largest %s, smallest %s; want is, cg", max, min)
			}
			if fig.name == "Fig8" {
				return
			}
			// Checkpointing costs something, and an error costs more.
			for _, name := range bench.BenchNames() {
				ckNE, ckE := tab[name][0], tab[name][1]
				if !(0 < ckNE && ckNE < ckE) {
					t.Errorf("%s: want 0 < Ckpt_NE (%v) < Ckpt_E (%v)", name, ckNE, ckE)
				}
			}
			if len(tab) != 9 {
				t.Fatalf("rows = %d, want 8 benchmarks + avg", len(tab))
			}
			if avg := tab["avg"][4]; !(avg > 0) {
				t.Errorf("average NE reduction %v not positive", avg)
			}
		})
	}

	// Fig. 9 signatures: is has a high Overall but a near-zero Max, ft a
	// near-zero Max, and dc the largest Max.
	t.Run("Fig9", func(t *testing.T) {
		tab := rows(t, r.Fig9, p)
		if o := tab["is"][0]; o < 20 {
			t.Errorf("is Overall reduction %v below 20", o)
		}
		for _, name := range []string{"is", "ft"} {
			if m := tab[name][1]; m >= 1 {
				t.Errorf("%s Max reduction %v, want below 1", name, m)
			}
		}
		if max, _ := extremes(tab, 1); max != "dc" {
			t.Errorf("largest Max reduction is %s's, want dc's", max)
		}
	})

	// Table II: every benchmark's size reduction is a staircase, never
	// falling as the Slice-length threshold rises.
	t.Run("TableII", func(t *testing.T) {
		tab := rows(t, r.TableII, p)
		for _, name := range bench.BenchNames() {
			row := tab[name]
			for i := 1; i < len(row); i++ {
				if row[i] < row[i-1] {
					t.Errorf("%s: reduction falls from %v to %v at threshold column %d",
						name, row[i-1], row[i], i+1)
				}
			}
		}
	})

	// Fig. 13: the pairwise-communicating ft/is/mg/dc gain from local
	// checkpointing in every configuration; the all-to-all bt/cg/sp do not.
	t.Run("Fig13", func(t *testing.T) {
		tab := rows(t, r.Fig13, p)
		for _, name := range []string{"ft", "is", "mg", "dc"} {
			for i, v := range tab[name] {
				if v > 0.95 {
					t.Errorf("%s column %d: local ratio %v shows no benefit for a pairwise benchmark", name, i+1, v)
				}
			}
		}
		for _, name := range []string{"bt", "cg", "sp"} {
			for i, v := range tab[name] {
				if v < 0.9 {
					t.Errorf("%s column %d: local ratio %v unexpectedly low for an all-to-all benchmark", name, i+1, v)
				}
			}
		}
	})
}
