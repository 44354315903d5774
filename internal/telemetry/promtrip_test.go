package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPrometheusSampleRoundTrip proves Write → Parse equality over a
// registry exercising every metric kind and label shape: label-less,
// single- and multi-label counters, gauges, and labelled histograms, with
// label values needing every escape (backslash, quote, newline).
func TestPrometheusSampleRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_plain_total", "plain").Add(7)
	c := reg.Counter("rt_ops_total", "ops", "op", "core")
	c.With("read", "0").Add(1)
	c.With("write", "3").Add(2.5)
	reg.Gauge("rt_level", "level").Set(-2.25)
	esc := reg.Gauge("rt_escaped", "escapes", "path")
	esc.With(`C:\dir "quoted"` + "\nline2").Set(1)
	h := reg.Histogram("rt_lat", "latency", []float64{0.5, 1}, "kind")
	h.With("a").Observe(0.25)
	h.With("a").Observe(0.75)
	h.With("a").Observe(9)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exposition := buf.String()

	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ParseExposition rejects our own output: %v\n%s", err, exposition)
	}

	got, err := ParseSamples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseSamples: %v\n%s", err, exposition)
	}

	want := []Sample{
		{Name: "rt_plain_total", Value: 7},
		{Name: "rt_ops_total", Labels: []Label{{"op", "read"}, {"core", "0"}}, Value: 1},
		{Name: "rt_ops_total", Labels: []Label{{"op", "write"}, {"core", "3"}}, Value: 2.5},
		{Name: "rt_level", Value: -2.25},
		{Name: "rt_escaped", Labels: []Label{{"path", `C:\dir "quoted"` + "\nline2"}}, Value: 1},
		{Name: "rt_lat_bucket", Labels: []Label{{"kind", "a"}, {"le", "0.5"}}, Value: 1},
		{Name: "rt_lat_bucket", Labels: []Label{{"kind", "a"}, {"le", "1"}}, Value: 2},
		{Name: "rt_lat_bucket", Labels: []Label{{"kind", "a"}, {"le", "+Inf"}}, Value: 3},
		{Name: "rt_lat_sum", Labels: []Label{{"kind", "a"}}, Value: 10},
		{Name: "rt_lat_count", Labels: []Label{{"kind", "a"}}, Value: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v\nexposition:\n%s", got, want, exposition)
	}
}

func TestParseSamplesRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		`unterminated{a="x} 1` + "\n",
		`bad-name{} 1` + "\n",
		`missing_eq{a} 1` + "\n",
		`trailing{a="x"} not_a_number` + "\n",
	} {
		if _, err := ParseSamples(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("ParseSamples(%q): want error", bad)
		}
	}
}

// FuzzParseExposition: the exposition parsers never panic on arbitrary
// input, and when both accept it they agree on the number of sample lines.
// Seeds live in testdata/fuzz/FuzzParseExposition.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, errExp := ParseExposition(bytes.NewReader(data))
		samples, errSamples := ParseSamples(bytes.NewReader(data))
		if errExp == nil && errSamples == nil && st.Samples != len(samples) {
			t.Fatalf("ParseExposition counted %d samples, ParseSamples returned %d", st.Samples, len(samples))
		}
	})
}
