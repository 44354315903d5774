package report

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acr/internal/telemetry"
)

func TestCompareAppeared(t *testing.T) {
	r := compare("k", "m", 0, 5, 0.05)
	if !r.Appeared || !r.Regressed || r.Delta != 0 {
		t.Fatalf("0→5: %+v", r)
	}
	r = compare("k", "m", 0, 0, 0)
	if r.Appeared || r.Regressed {
		t.Fatalf("0→0: %+v", r)
	}
}

// writeProfile writes one telemetry profile into dir.
func writeProfile(t *testing.T, dir, name string, meta map[string]string, touch func(*telemetry.Registry)) {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Counter("rep_events_total", "", "kind").With("checkpoint").Add(10)
	h := reg.Histogram("rep_span", "", []float64{1, 10, 100})
	h.Observe(5)
	h.Observe(50)
	if touch != nil {
		touch(reg)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.WriteProfile(f, meta, reg); err != nil {
		t.Fatal(err)
	}
}

func TestDiffProfiles(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	meta := map[string]string{"bench": "is", "config": "ReCkpt_E"}
	writeProfile(t, oldDir, "a.json", meta, nil)
	writeProfile(t, newDir, "a.json", meta, nil)

	oldSet, err := LoadProfiles(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	newSet, err := LoadProfiles(newDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := DiffProfiles(oldSet, newSet, Options{Threshold: 0})
	if rep.Regressions != 0 {
		t.Fatalf("identical profiles: %d regressions", rep.Regressions)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("identical profiles compared no samples")
	}

	// Any drift in a deterministic profile regresses at threshold 0 —
	// even an "improvement"-shaped one like an extra span observation.
	drifted := t.TempDir()
	writeProfile(t, drifted, "a.json", meta, func(reg *telemetry.Registry) {
		reg.Counter("rep_events_total", "", "kind").With("checkpoint").Add(2)
	})
	driftSet, err := LoadProfiles(drifted)
	if err != nil {
		t.Fatal(err)
	}
	rep = DiffProfiles(oldSet, driftSet, Options{Threshold: 0})
	if rep.Regressions == 0 {
		t.Fatal("deterministic drift not flagged")
	}

	// A single profile file also loads (non-directory path).
	single, err := LoadProfiles(filepath.Join(oldDir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Samples) != 1 {
		t.Fatalf("single file: %d profiles", len(single.Samples))
	}
	// Histograms flatten into count/sum/quantiles.
	for _, samples := range single.Samples {
		for _, want := range []string{"rep_span:count", "rep_span:sum", "rep_span:p50", "rep_span:p99"} {
			if _, ok := samples[want]; !ok {
				t.Fatalf("flattened profile lacks %s: %v", want, samples)
			}
		}
	}
}

// loadDir writes one profile (default contents plus touch) into a fresh
// directory and loads it back.
func loadDir(t *testing.T, meta map[string]string, touch func(*telemetry.Registry)) *ProfileSet {
	t.Helper()
	dir := t.TempDir()
	writeProfile(t, dir, "a.json", meta, touch)
	set, err := LoadProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestDiffProfilesThresholdAndAllowlist(t *testing.T) {
	meta := map[string]string{"bench": "is"}
	base := loadDir(t, meta, nil)
	// rep_events_total goes 10 → 11: +10%.
	drifted := loadDir(t, meta, func(reg *telemetry.Registry) {
		reg.Counter("rep_events_total", "", "kind").With("checkpoint").Add(1)
	})

	if rep := DiffProfiles(base, drifted, Options{Threshold: 0.05}); rep.Regressions != 1 {
		t.Fatalf("+10%% at 5%% threshold: %d regressions, want 1", rep.Regressions)
	} else if !rep.Rows[0].Regressed || rep.Rows[0].Metric != "rep_events_total{kind=checkpoint}" {
		t.Fatalf("regressions should sort first: %+v", rep.Rows[0])
	}
	// Drift either way regresses: the simulator is deterministic.
	if rep := DiffProfiles(drifted, base, Options{Threshold: 0.05}); rep.Regressions != 1 {
		t.Fatalf("-9%% at 5%% threshold: %d regressions, want 1", rep.Regressions)
	}
	// Below-threshold drift passes.
	if rep := DiffProfiles(base, drifted, Options{Threshold: 0.2}); rep.Regressions != 0 {
		t.Fatalf("+10%% at 20%% threshold: %d regressions", rep.Regressions)
	}
	// The metrics allowlist masks regressions outside it.
	rep := DiffProfiles(base, drifted, Options{Threshold: 0, Metrics: []string{"rep_span"}})
	if rep.Regressions != 0 || len(rep.Rows) == 0 {
		t.Fatalf("allowlisted diff: %d regressions over %d rows", rep.Regressions, len(rep.Rows))
	}
}

func TestDiffProfilesUnmatchedKeys(t *testing.T) {
	oldSet := &ProfileSet{Samples: map[string]map[string]float64{
		"a": {"m": 1}, "gone": {"m": 1},
	}}
	newSet := &ProfileSet{Samples: map[string]map[string]float64{
		"a": {"m": 1}, "fresh": {"m": 1},
	}}
	rep := DiffProfiles(oldSet, newSet, Options{})
	if rep.Regressions != 0 || len(rep.OnlyOld) != 1 || len(rep.OnlyNew) != 1 {
		t.Fatalf("unmatched keys are notes by default: %+v", rep)
	}
	rep = DiffProfiles(oldSet, newSet, Options{RequireMatch: true})
	if rep.Regressions != 2 {
		t.Fatalf("-require-match: %d regressions, want 2", rep.Regressions)
	}
}

// TestDiffProfilesOneSidedMetrics: inside a matched profile, a family or
// series present on only one side is a regression in either direction,
// even at a loose threshold, unless the metrics allowlist excludes it.
func TestDiffProfilesOneSidedMetrics(t *testing.T) {
	meta := map[string]string{"bench": "is"}
	base := loadDir(t, meta, nil)
	extra := loadDir(t, meta, func(reg *telemetry.Registry) {
		reg.Gauge("rep_extra", "").Set(0)
	})
	for _, tc := range []struct {
		name     string
		old, new *ProfileSet
		onlyIn   string
	}{
		{"vanished", extra, base, "old"},
		{"appeared", base, extra, "new"},
	} {
		rep := DiffProfiles(tc.old, tc.new, Options{Threshold: 0.5})
		if rep.Regressions != 1 {
			t.Fatalf("%s family: %d regressions, want 1", tc.name, rep.Regressions)
		}
		if got := rep.Rows[0]; got.Metric != "rep_extra" || got.OnlyIn != tc.onlyIn || !got.Regressed {
			t.Fatalf("%s family row: %+v", tc.name, got)
		}
		masked := DiffProfiles(tc.old, tc.new, Options{Metrics: []string{"rep_events_total"}})
		if masked.Regressions != 0 {
			t.Fatalf("%s family outside the allowlist: %d regressions", tc.name, masked.Regressions)
		}
	}

	var buf bytes.Buffer
	if err := DiffProfiles(extra, base, Options{}).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "only old") {
		t.Fatalf("table does not name the missing side:\n%s", buf.String())
	}
}

func TestRenderOutputs(t *testing.T) {
	oldSet := &ProfileSet{Samples: map[string]map[string]float64{"a": {"m": 100}}}
	newSet := &ProfileSet{Samples: map[string]map[string]float64{"a": {"m": 150}}}
	rep := DiffProfiles(oldSet, newSet, Options{Threshold: 0.05})

	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "1 regression") {
		t.Fatalf("table output:\n%s", out)
	}

	buf.Reset()
	if err := rep.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Regressions != 1 || len(decoded.Rows) != 1 || decoded.Rows[0].Delta != 0.5 {
		t.Fatalf("JSON output: %+v", decoded)
	}
}

// FuzzReadProfile feeds arbitrary bytes through the profile reader and the
// flattening and diffing behind acrreport: any input is either rejected
// with an error or loads into a profile that diffs clean against itself.
// The seed corpus lives in testdata/fuzz/FuzzReadProfile.
func FuzzReadProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := telemetry.ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		set := &ProfileSet{Samples: map[string]map[string]float64{metaKey(p.Meta): flattenProfile(p)}}
		rep := DiffProfiles(set, set, Options{RequireMatch: true})
		if rep.Regressions != 0 {
			t.Fatalf("profile self-diff found %d regressions", rep.Regressions)
		}
		if err := rep.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
