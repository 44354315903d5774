package bench

import (
	"fmt"
	"strconv"
	"testing"

	"acr/internal/stats"
)

// column returns one column of a generator's table, keyed by benchmark.
func column(t *testing.T, tab *stats.Table, col string) map[string]string {
	t.Helper()
	for i, c := range tab.Cols {
		if c != col {
			continue
		}
		out := make(map[string]string, len(tab.Rows))
		for _, row := range tab.Rows {
			out[row[0]] = row[i]
		}
		return out
	}
	t.Fatalf("%s: no column %q", tab.Title, col)
	return nil
}

// TestAblationsMatchPaperCells: every ablation sweeps one knob through a
// value that reproduces a paper configuration — the default AddrMap
// capacity, the threshold policy, uniform placement, a detection latency
// of half a period — so that column must print the paper figure's cell
// verbatim, whether or not the memo key differs. A generator that reads
// the wrong cell of its grid breaks the identity.
func TestAblationsMatchPaperCells(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	r := NewRunner()
	p := Params{Threads: 2, Class: tinyParams().Class} // the identities hold at any scale
	table := func(gen func(Params) (*stats.Table, error)) *stats.Table {
		tab, err := gen(p)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	fig6, fig9 := table(r.Fig6), table(r.Fig9)
	policy, addrMap := table(r.AblationPolicy), table(r.AblationAddrMap)
	detect, adaptive := table(r.AblationDetect), table(r.AblationAdaptive)
	for _, c := range []struct {
		got     *stats.Table
		gotCol  string
		want    *stats.Table
		wantCol string
	}{
		{addrMap, fmt.Sprintf("%d", 4096*p.Threads), fig9, "Overall"},
		{policy, "thr size-red%", fig9, "Overall"},
		{policy, "thr time-ovh%", fig6, "ReCkpt_NE"},
		{adaptive, "uniform ovh%", fig6, "ReCkpt_NE"},
		{adaptive, "uniform red%", fig9, "Overall"},
		{detect, "0.50", fig6, "ReCkpt_E"},
	} {
		got, want := column(t, c.got, c.gotCol), column(t, c.want, c.wantCol)
		for _, name := range BenchNames() {
			if got[name] != want[name] {
				t.Errorf("%s: %q column %s = %q, want %q (%s)",
					name, c.gotCol, c.got.Title, got[name], want[name], c.wantCol)
			}
		}
	}

	// At this scale the two largest capacities print the same reductions,
	// so the identity above cannot tell them apart: check every AddrMap
	// column against its own capacity's (memoised) run.
	for _, col := range addrMap.Cols[1:] {
		spec := ReCkptNE
		spec.MapCapacity, _ = strconv.Atoi(col)
		got := column(t, addrMap, col)
		for _, name := range BenchNames() {
			res, err := r.Run(name, p, spec)
			if err != nil {
				t.Fatal(err)
			}
			if overall, _ := sizeReduction(res); got[name] != stats.Pct(overall) {
				t.Errorf("%s: AddrMap column %s = %q, want %q", name, col, got[name], stats.Pct(overall))
			}
		}
	}
}
