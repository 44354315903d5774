package bench

import (
	"reflect"
	"testing"

	"acr/internal/ckpt"
)

// specProbes varies exactly one Spec field away from its zero value. The
// memokey analyzer proves statically that runKey is a pure value embedding
// the Spec; this table lets TestMemoKeyNonExemptFieldsDistinct prove
// dynamically that the key actually separates on each field.
var specProbes = map[string]Spec{
	"Ckpt":        {Ckpt: true},
	"Errors":      {Errors: 1},
	"Local":       {Local: true},
	"Threshold":   {Threshold: 7},
	"NumCkpts":    {NumCkpts: 13},
	"CostPolicy":  {CostPolicy: true},
	"Adaptive":    {Adaptive: true},
	"MapCapacity": {MapCapacity: 128},
	"DetectFrac":  {DetectFrac: 0.25},
	"Strategy":    {Strategy: ckpt.KindTiered},
}

// TestMemoKeyNonExemptFieldsDistinct: runKey embeds the Spec, so changing
// any Spec field must change the memoisation key. Every field is
// enumerated by reflection, so adding a Spec field without extending the
// probe table fails here.
func TestMemoKeyNonExemptFieldsDistinct(t *testing.T) {
	p := tinyParams()
	base := Job{Bench: "is", Params: p}
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		probe, ok := specProbes[name]
		if !ok {
			t.Errorf("Spec field %s has no probe: extend specProbes when adding fields", name)
			continue
		}
		if reflect.ValueOf(probe).Field(i).IsZero() {
			t.Errorf("probe for %s leaves the field at its zero value", name)
			continue
		}
		varied := Job{Bench: "is", Params: p, Spec: probe}
		if base.key() == varied.key() {
			t.Errorf("varying non-exempt Spec field %s does not change the memo key: %+v",
				name, varied.key())
		}
	}
}

// TestMemoKeyProbesPairwiseDistinct: no two single-field probes may fold to
// the same key either.
func TestMemoKeyProbesPairwiseDistinct(t *testing.T) {
	p := tinyParams()
	keys := make(map[runKey]string)
	for name, probe := range specProbes {
		key := Job{Bench: "is", Params: p, Spec: probe}.key()
		if prev, dup := keys[key]; dup {
			t.Errorf("probes %s and %s collide on memo key %+v", prev, name, key)
		}
		keys[key] = name
	}
}

// TestMemoExemptKnobsShareCell: the //acr:memo-exempt grammar promises the
// opposite direction — changing an exempt Runner knob must neither open a
// new cache cell nor change the memoised result. The declared knobs
// (Workers, SimWorkers) are flipped across their interesting settings —
// SimWorkers leaning on the parallel engine's bit-identity guarantee.
func TestMemoExemptKnobsShareCell(t *testing.T) {
	p := tinyParams()
	spec := Spec{Ckpt: true, Strategy: ckpt.KindAmnesic, NumCkpts: 10}

	r := NewRunner()
	want, err := r.Run("is", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(r.cache)

	// Same runner, knobs changed: the warmed cache must be reused as-is.
	r.Workers = 4
	r.SimWorkers = 2
	if _, err := r.Run("is", p, spec); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != cells {
		t.Errorf("changing exempt knobs grew the cache from %d to %d cells", cells, len(r.cache))
	}

	// Fresh runner at the other knob settings: the exempt declaration also
	// claims result invariance, so a cold run must be bit-identical.
	r2 := NewRunner()
	r2.Workers = 4
	r2.SimWorkers = 2
	got, err := r2.Run("is", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("exempt knobs changed the result:\nserial: %+v\nknobbed: %+v", want, got)
	}
	if len(r2.cache) != cells {
		t.Errorf("knobbed runner used %d cells, serial used %d", len(r2.cache), cells)
	}
}
