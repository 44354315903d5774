package bench

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"acr/internal/ckpt"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// recordingLifecycle captures every JobBegin/JobEnd and counts observed
// events, for asserting the driver fires the seam correctly. RunAll's pool
// calls JobBegin from several workers, hence the lock.
type recordingLifecycle struct {
	mu     sync.Mutex
	begins []beginCall
	tokens []*recordingObservation
}

type beginCall struct {
	key    string
	shared bool
}

type recordingObservation struct {
	events int
	ended  bool
	res    sim.Result
	err    error
}

func (o *recordingObservation) OnEvent(sim.Event) { o.events++ }

func (o *recordingObservation) Observers() []sim.Observer { return []sim.Observer{o} }

func (o *recordingObservation) JobEnd(res sim.Result, err error) {
	o.ended, o.res, o.err = true, res, err
}

func (l *recordingLifecycle) JobBegin(j Job, key string, shared bool) JobObservation {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.begins = append(l.begins, beginCall{key: key, shared: shared})
	tok := &recordingObservation{}
	l.tokens = append(l.tokens, tok)
	return tok
}

func lcParams() Params {
	return Params{Threads: 2, Class: workloads.ClassS}
}

func TestLifecycleObservesRunAll(t *testing.T) {
	lc := &recordingLifecycle{}
	r := NewRunner()
	r.Workers = 1 // serial, so JobBegin fires in job order
	r.Lifecycle = lc
	p := lcParams()

	jobs := []Job{
		{Bench: "is", Params: p, Spec: NoCkpt},
		{Bench: "is", Params: p, Spec: CkptNE},
		{Bench: "is", Params: p, Spec: NoCkpt}, // cache-shared duplicate
	}
	results, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.begins) != 3 {
		t.Fatalf("JobBegin fired %d times, want 3", len(lc.begins))
	}
	for i, tok := range lc.tokens {
		if !tok.ended {
			t.Fatalf("token %d never received JobEnd", i)
		}
		if tok.err != nil {
			t.Fatalf("token %d: %v", i, tok.err)
		}
	}
	// The duplicate NoCkpt job shares the first job's cache cell.
	if lc.begins[0].key != lc.begins[2].key {
		t.Fatalf("duplicate jobs got different keys: %q vs %q", lc.begins[0].key, lc.begins[2].key)
	}
	if lc.begins[0].key == lc.begins[1].key {
		t.Fatal("distinct specs share a key")
	}
	// The checkpointed job's winning execution observes events
	// (checkpoints at least); a job that rode the cache observes none.
	ckptTok := lc.tokens[1]
	if ckptTok.events == 0 {
		t.Fatal("checkpointed job observed no events")
	}
	if results[1].Ckpt.Checkpoints == 0 {
		t.Fatal("sanity: checkpointed run performed no checkpoints")
	}
	// Delivered results match the driver's.
	if ckptTok.res.Cycles != results[1].Cycles {
		t.Fatalf("JobEnd result diverges: %d vs %d", ckptTok.res.Cycles, results[1].Cycles)
	}
}

// TestLifecycleObservationInvariant proves the PR 3 invariant across the
// lifecycle seam: a runner with a lifecycle attached returns bit-identical
// results to one without.
func TestLifecycleObservationInvariant(t *testing.T) {
	p := lcParams()
	jobs := []Job{
		{Bench: "is", Params: p, Spec: NoCkpt},
		{Bench: "is", Params: p, Spec: ReCkptE},
	}

	plain := NewRunner()
	want, err := plain.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}

	observed := NewRunner()
	observed.Lifecycle = &recordingLifecycle{}
	got, err := observed.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("job %d: results diverge with a lifecycle attached\nwant %+v\ngot  %+v",
				i, want[i], got[i])
		}
	}
}

// TestKeyStringCoversEverySpecField is the KeyString completeness proof:
// perturbing any single Spec field of a checkpointed job must change the
// key, so distinct memo cells can never collide.
// TestMemoKeyNonExemptFieldsDistinct proves every field reaches runKey;
// this proves runKey's string form keeps the distinctions.
func TestKeyStringCoversEverySpecField(t *testing.T) {
	base := Job{Bench: "cg", Params: lcParams(), Spec: Spec{Ckpt: true}}
	baseKey := base.KeyString()

	specType := reflect.TypeOf(Spec{})
	for i := 0; i < specType.NumField(); i++ {
		field := specType.Field(i)
		j := base
		sv := reflect.ValueOf(&j.Spec).Elem().Field(i)
		switch field.Type.Kind() {
		case reflect.Bool:
			sv.SetBool(!sv.Bool())
		case reflect.Int:
			if field.Type == reflect.TypeOf(ckpt.Kind(0)) {
				sv.Set(reflect.ValueOf(ckpt.KindTiered))
			} else {
				sv.SetInt(sv.Int() + 3)
			}
		case reflect.Float64:
			sv.SetFloat(sv.Float() + 0.25)
		default:
			t.Fatalf("Spec field %s has unhandled kind %s — extend this test", field.Name, field.Type.Kind())
		}
		if got := j.KeyString(); got == baseKey {
			t.Errorf("Spec.%s does not reach KeyString: %q", field.Name, got)
		}
	}

	// Non-spec key components too.
	for _, j := range []Job{
		{Bench: "is", Params: base.Params, Spec: base.Spec},
		{Bench: "cg", Params: Params{Threads: 4, Class: workloads.ClassS}, Spec: base.Spec},
		{Bench: "cg", Params: Params{Threads: 2, Class: workloads.ClassW}, Spec: base.Spec},
	} {
		if j.KeyString() == baseKey {
			t.Errorf("job %+v shares the base key", j)
		}
	}

	// Keys are single whitespace-free tokens (perfbench's expected.json
	// and failure lines index jobs by them) and spell the paper
	// configuration.
	if strings.ContainsAny(baseKey, " \t\n?#") {
		t.Errorf("key %q contains whitespace or reserved characters", baseKey)
	}
	if want := fmt.Sprintf("cg/t2/S/%s/", base.Spec.String()); !strings.HasPrefix(baseKey, want) {
		t.Errorf("key %q lacks prefix %q", baseKey, want)
	}
}
