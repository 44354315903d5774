package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"acr/internal/sim"
)

func TestRegistryCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()

	c := reg.Counter("jobs_total", "Jobs.", "kind")
	c.With("a").Add(2)
	c.With("a").Add(3)
	c.With("b").Add(1)
	if got := c.With("a").Value(); got != 5 {
		t.Errorf(`counter {a} = %v, want 5`, got)
	}
	if len(c.Series()) != 2 {
		t.Errorf("series count = %d, want 2", len(c.Series()))
	}

	g := reg.Gauge("depth", "Depth.")
	g.Set(7)
	g.Set(3)
	if got := g.With().Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}

	h := reg.Histogram("lat", "Latency.", []float64{10, 100})
	h.Observe(5)
	h.Observe(10) // upper bounds are inclusive
	h.Observe(50)
	h.Observe(1000)
	buckets, sum, count := h.With().Hist()
	if buckets[0] != 2 || buckets[1] != 1 || buckets[2] != 1 {
		t.Errorf("buckets = %v, want [2 1 1]", buckets)
	}
	if sum != 1065 || count != 4 {
		t.Errorf("sum/count = %v/%v, want 1065/4", sum, count)
	}

	// Registration is idempotent for an identical shape.
	if reg.Counter("jobs_total", "Jobs.", "kind") != c {
		t.Error("re-registration returned a different family")
	}
	if len(reg.Families()) != 3 {
		t.Errorf("family count = %d, want 3", len(reg.Families()))
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	c := reg.Counter("c", "", "x")
	expectPanic("shape mismatch", func() { reg.Gauge("c", "") })
	expectPanic("label arity", func() { c.With("a", "b") })
	expectPanic("negative counter", func() { c.With("a").Add(-1) })
	expectPanic("unsorted buckets", func() { reg.Histogram("h", "", []float64{5, 1}) })
	expectPanic("empty buckets", func() { reg.Histogram("h2", "", nil) })
	expectPanic("observe non-histogram", func() { reg.Gauge("g", "").With().Observe(1) })
}

func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("acr_hits_total", "Hits per core.", "core", "level").With("0", "l1d").Add(12)
	reg.Counter("acr_hits_total", "Hits per core.", "core", "level").With("1", "l2").Add(3)
	reg.Gauge("acr_run_cycles", "Makespan.").Set(145184)
	h := reg.Histogram("acr_stall_cycles", "Stalls with a \"quoted\\escaped\" help.", []float64{100, 1000})
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`acr_hits_total{core="0",level="l1d"} 12`,
		`acr_run_cycles 145184`,
		`acr_stall_cycles_bucket{le="100"} 1`,
		`acr_stall_cycles_bucket{le="+Inf"} 2`,
		`acr_stall_cycles_sum 5050`,
		`acr_stall_cycles_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	st, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if st.Families != 3 {
		t.Errorf("parsed %d families, want 3", st.Families)
	}
	// 2 counter series + 1 gauge + (3 buckets + sum + count).
	if st.Samples != 8 {
		t.Errorf("parsed %d samples, want 8", st.Samples)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",                             // no samples
		"# TYPE x gibberish\nx 1",      // unknown type
		"metric{oops} 1",               // label without value
		`metric{a="unterminated} 1`,    // unterminated quote
		"metric one\n",                 // non-numeric value
		"1metric 5\n",                  // invalid name
		`metric{a="v"} 1 2 3`,          // too many fields
		"# TYPE only_type histogram\n", // families but no samples
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed exposition %q", bad)
		}
	}
}

func TestTracerProducesValidTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 2)
	events := []sim.Event{
		{Time: 100, Kind: sim.EvBarrier, Core: 0, Dur: 20},
		{Time: 100, Kind: sim.EvBarrier, Core: 1, Dur: 5},
		{Time: 150, Kind: sim.EvCheckpoint, Core: -1, Detail: 40, Aux: 60, Dur: 30},
		{Time: 200, Kind: sim.EvDefer, Core: -1},
		{Time: 240, Kind: sim.EvError, Core: -1, Detail: 210},
		{Time: 300, Kind: sim.EvRecovery, Core: -1, Detail: 80, Aux: 20, Dur: 55},
	}
	for _, e := range events {
		tr.OnEvent(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, buf.String())
	}
	// 7 metadata (process + 2×(name+sort) + checkpoint + recovery), 2 barrier
	// spans + 2 run spans, 2 async pairs, 2 instants.
	if n != tr.Events() {
		t.Errorf("validator counted %d events, tracer wrote %d", n, tr.Events())
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"core 0"`, `"name":"checkpoint"`, `"name":"recovery"`,
		`"name":"barrier"`, `"name":"run"`, `"ph":"b"`, `"ph":"e"`,
		`"logged_words":40`, `"restored_words":80`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// Ignoring events after Close must not corrupt the output.
	tr.OnEvent(events[0])
	if ValidateTraceString(t, buf.Bytes()) != n {
		t.Error("post-Close event changed the trace")
	}
}

func ValidateTraceString(t *testing.T, b []byte) int {
	t.Helper()
	n, err := ValidateTrace(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		``, `[]`, `{"ph":"X"}`,
		`[{"ph":"X","name":"x","pid":1,"tid":0,"ts":1}]`, // X without dur
		`[{"name":"x","pid":1,"tid":0,"ts":1}]`,          // no phase
		`[{"ph":"q","name":"x","pid":1,"tid":0}]`,        // unknown phase
	} {
		if _, err := ValidateTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed trace %q", bad)
		}
	}
}

// FuzzValidateTrace: the trace validator returns an event count or an
// error on arbitrary input and never panics; an accepted trace has at least
// one event. Seeds live in testdata/fuzz/FuzzValidateTrace.
func FuzzValidateTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ValidateTrace(bytes.NewReader(data))
		switch {
		case err != nil && n != 0:
			t.Fatalf("error %v with count %d", err, n)
		case err == nil && n < 1:
			t.Fatalf("accepted trace with %d events", n)
		}
	})
}

func TestProfileRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.", "k").With("x").Add(4)
	reg.Histogram("b", "B.", []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	meta := map[string]string{"bench": "is", "class": "S"}
	if err := WriteProfile(&buf, meta, reg); err != nil {
		t.Fatal(err)
	}
	p, err := ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta["bench"] != "is" || len(p.Families) != 2 {
		t.Errorf("profile round-trip lost data: %+v", p)
	}
	hist := p.Families[1]
	if hist.Kind != "histogram" || len(hist.Series[0].BucketCounts) != 3 {
		t.Errorf("histogram shape lost: %+v", hist)
	}

	if _, err := ReadProfile(strings.NewReader(`{"families":[]}`)); err == nil {
		t.Error("accepted empty profile")
	}
	if _, err := ReadProfile(strings.NewReader(
		`{"families":[{"name":"x","kind":"blob","series":[]}]}`)); err == nil {
		t.Error("accepted unknown family kind")
	}
	// Histogram bounds obey Registry.Histogram's rules: at least one,
	// sorted.
	for name, doc := range map[string]string{
		"empty":    `{"families":[{"name":"h","kind":"histogram","series":[{"bucket_counts":[5],"count":5}]}]}`,
		"unsorted": `{"families":[{"name":"h","kind":"histogram","buckets":[10,1],"series":[{"bucket_counts":[1,2,3],"count":6}]}]}`,
	} {
		if _, err := ReadProfile(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %s histogram bounds", name)
		}
	}
}

// TestObserveResultStrategyMetrics: ObserveResult labels the run with its
// resolved checkpoint strategy and exports the strategy-specific traffic
// counters, so exported profiles identify the scheme that produced them.
func TestObserveResultStrategyMetrics(t *testing.T) {
	reg := NewRegistry()
	col := NewCollector(reg)
	var res sim.Result
	res.Strategy = "tiered"
	res.Ckpt.FastLogWords = 128
	res.Ckpt.DemotedWords = 64
	res.Ckpt.MultiSnapshotRollbacks = 2
	res.Ckpt.MaxRollbackDepth = 3
	res.AddrMap.PrunedAssocs = 5
	res.AddrMap.BoostedAssocs = 7
	col.ObserveResult(res)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`acr_run_strategy_info{strategy="tiered"} 1`,
		"acr_ckpt_fast_log_words 128",
		"acr_ckpt_demoted_words 64",
		"acr_ckpt_multi_snapshot_rollbacks 2",
		"acr_ckpt_max_rollback_depth 3",
		"acr_addrmap_pruned_assocs 5",
		"acr_addrmap_boosted_assocs 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestSchedCollectorGauges: the engine's dispatch counters reach the
// exposition, so an exported run shows its quantum granularity.
func TestSchedCollectorGauges(t *testing.T) {
	reg := NewRegistry()
	st := sim.SchedStats{Spans: 40, SpanInstrs: 1000, EagerCalls: 7, EagerInstrs: 90}
	st.QuantumHist[3] = 40
	NewSchedCollector(reg).ObserveSchedStats(st)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"acr_sched_spans 40",
		"acr_sched_quantum_avg_instrs 25",
		"acr_sched_eager_calls 7",
		"acr_sched_eager_instrs 90",
		"acr_sched_quantum_instrs_count 40",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
