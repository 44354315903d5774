package bench

import (
	"encoding/json"
	"testing"

	"acr/internal/ckpt"
)

// TestSpecStrategyNames: the new strategies get their own configuration
// names, so tables and job-failure messages identify the scheme.
func TestSpecStrategyNames(t *testing.T) {
	cases := map[string]Spec{
		"Ckpt_NE":     {Ckpt: true, Strategy: ckpt.KindFull},
		"ReCkpt_E":    {Ckpt: true, Strategy: ckpt.KindAmnesic, Errors: 1},
		"DiffCkpt_NE": {Ckpt: true, Strategy: ckpt.KindDifferential},
		"TierCkpt_E":  {Ckpt: true, Strategy: ckpt.KindTiered, Errors: 2},
		"AutoCkpt_NE": {Ckpt: true, Strategy: ckpt.KindAuto},
		"AutoCkpt_E,Loc": {Ckpt: true, Strategy: ckpt.KindAuto, Errors: 1,
			Local: true},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("Spec %+v renders %q, want %q", spec, got, want)
		}
	}
}

// TestStrategyMemoKeysDistinct is the cache-collision satellite: every
// strategy must key its own cache cell.
func TestStrategyMemoKeysDistinct(t *testing.T) {
	p := tinyParams()
	keys := make(map[runKey]ckpt.Kind)
	for _, k := range ckpt.Kinds() {
		j := Job{Bench: "is", Params: p, Spec: Spec{Ckpt: true, Strategy: k}}
		key := j.key()
		if prev, dup := keys[key]; dup {
			t.Fatalf("strategies %v and %v collide on cache key %+v", prev, k, key)
		}
		keys[key] = k
	}
	if len(keys) != len(ckpt.Kinds()) {
		t.Fatalf("expected %d distinct keys, got %d", len(ckpt.Kinds()), len(keys))
	}
}

// TestStrategyMatrixDocSmoke runs the matrix generator on a tiny grid and
// checks shape plus the per-strategy traffic signatures: each scheme must
// leave its own fingerprint in the counters, or the strategies are labels
// rather than mechanisms.
func TestStrategyMatrixDocSmoke(t *testing.T) {
	r := NewRunner()
	p := tinyParams()
	doc, err := r.StrategyMatrixDoc([]string{"is"}, []int{2, 4}, p.Class, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * len(ckpt.Kinds())
	if len(doc.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(doc.Cells), wantCells)
	}
	if doc.HostCPUs < 1 {
		t.Errorf("host_cpus = %d", doc.HostCPUs)
	}
	for _, c := range doc.Cells {
		switch c.Strategy {
		case "full":
			if c.Omitted != 0 || c.Delta != 0 || c.FastLog != 0 {
				t.Errorf("full cell has amnesic/delta/tier traffic: %+v", c)
			}
			if c.Logged == 0 {
				t.Errorf("full cell logged nothing: %+v", c)
			}
		case "amnesic":
			if c.Delta != 0 || c.FastLog != 0 {
				t.Errorf("amnesic cell has delta/tier traffic: %+v", c)
			}
		case "differential":
			if c.Delta == 0 || c.Logged != c.Delta {
				t.Errorf("differential cell: logged %d, delta %d", c.Logged, c.Delta)
			}
			if c.Omitted != 0 {
				t.Errorf("differential cell omitted %d words", c.Omitted)
			}
		case "tiered":
			if c.FastLog == 0 || c.Demoted == 0 {
				t.Errorf("tiered cell: fast %d, demoted %d", c.FastLog, c.Demoted)
			}
		case "auto":
			if c.Delta != 0 || c.FastLog != 0 {
				t.Errorf("auto cell has delta/tier traffic: %+v", c)
			}
		default:
			t.Errorf("unknown strategy %q in matrix", c.Strategy)
		}
		if c.Recoveries == 0 {
			t.Errorf("%s@%d: error variant recovered nothing", c.Strategy, c.Threads)
		}
	}

	// The doc must round-trip through JSON — it is the CI artifact.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back StrategyMatrixDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != wantCells {
		t.Errorf("JSON round-trip lost cells: %d", len(back.Cells))
	}
}

// TestStrategyMatrixTableRenders: the rendered table carries every strategy
// row and the explanatory notes.
func TestStrategyMatrixTableRenders(t *testing.T) {
	r := NewRunner()
	p := tinyParams()
	doc, err := r.StrategyMatrixDoc([]string{"is"}, []int{2}, p.Class, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := doc.Table()
	if len(tab.Rows) != len(ckpt.Kinds()) {
		t.Errorf("rows = %d, want %d", len(tab.Rows), len(ckpt.Kinds()))
	}
}
