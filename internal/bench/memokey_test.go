package bench

import (
	"reflect"
	"testing"

	"acr/internal/ckpt"
)

// specProbes varies exactly one Spec field away from its zero value.
// TestMemoKeyIsPureValue proves runKey is a pure value embedding the Spec;
// this table lets TestMemoKeyNonExemptFieldsDistinct prove that the key
// actually separates on each field.
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

// TestMemoExemptKnobsShareCell: a knob declared in memoExemptKnobs promises
// the opposite direction — changing an exempt Runner knob must neither open
// a new cache cell nor change the memoised result. The declared knobs
// (Workers, SimWorkers) are flipped across their interesting settings;
// SimWorkers is unread, so it must be inert.
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

// referenceFields lists every field reachable from t, through nested
// structs and array elements, whose kind compares by reference identity:
// pointer, slice, map, interface, chan or func. A key holding one would
// split the cache, since two equal configurations would occupy distinct
// cells.
func referenceFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, referenceFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return referenceFields(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return []string{path + " (" + t.String() + ")"}
	}
	return nil
}

// TestMemoKeyIsPureValue: runKey, including the Spec it embeds, is built
// from basic values only, so semantically equal configurations share one
// cache cell. The walker itself is checked on a key with a reference field
// nested in a struct and one at top level.
func TestMemoKeyIsPureValue(t *testing.T) {
	if bad := referenceFields(reflect.TypeOf(runKey{}), "runKey"); len(bad) > 0 {
		t.Errorf("memo key has reference-typed fields: %v", bad)
	}
	type inner struct {
		scale float64
		ptr   *int64
	}
	type badKey struct {
		Name   string
		Params [4]int64
		Nested inner
		Tags   []string
	}
	got := referenceFields(reflect.TypeOf(badKey{}), "badKey")
	want := []string{"badKey.Nested.ptr (*int64)", "badKey.Tags ([]string)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walker on a seeded key: got %v, want %v", got, want)
	}
}

// memoExemptKnobs declares every exported Runner field — a driver knob
// outside the memo key — with the test proving it never changes results.
var memoExemptKnobs = map[string]func(*testing.T){
	"Workers":    TestMemoExemptKnobsShareCell,
	"SimWorkers": TestMemoExemptKnobsShareCell,
	"Lifecycle":  TestLifecycleObservationInvariant,
}

// undeclaredKnobs lists the exported fields of t missing from declared.
func undeclaredKnobs(t reflect.Type, declared map[string]func(*testing.T)) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if _, ok := declared[f.Name]; f.IsExported() && !ok {
			out = append(out, f.Name)
		}
	}
	return out
}

// TestRunnerKnobsDeclared: a new exported Runner field must either join
// the Spec (and so the key) or be declared in memoExemptKnobs with its
// invariance test. The check itself is run on a cache owner with one
// undeclared knob.
func TestRunnerKnobsDeclared(t *testing.T) {
	if bad := undeclaredKnobs(reflect.TypeOf(Runner{}), memoExemptKnobs); len(bad) > 0 {
		t.Errorf("Runner knobs outside the memo key with no invariance test in memoExemptKnobs: %v", bad)
	}
	for name := range memoExemptKnobs {
		if _, ok := reflect.TypeOf(Runner{}).FieldByName(name); !ok {
			t.Errorf("memoExemptKnobs declares %s, which is not a Runner field", name)
		}
	}
	type cache struct {
		Workers int
		Retries int
		table   map[string]int
	}
	declared := map[string]func(*testing.T){"Workers": TestMemoExemptKnobsShareCell}
	if got := undeclaredKnobs(reflect.TypeOf(cache{}), declared); !reflect.DeepEqual(got, []string{"Retries"}) {
		t.Errorf("undeclared knobs on a seeded cache owner: got %v, want [Retries]", got)
	}
}
