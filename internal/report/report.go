// Package report joins two sets of run profiles on their deterministic
// keys and emits a per-metric delta table with regression gating — the
// tooling behind cmd/acrreport.
//
// Profiles (telemetry.Profile JSON files, or directories of them) join on
// their canonicalised meta; series flatten to name{labels} samples, and
// histograms additionally expose _count, _sum and interpolated p50/p99.
// Simulated results are deterministic, so drift in either direction beyond
// the threshold counts as a regression, and so does a sample present on
// only one side of a matched profile.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"acr/internal/stats"
)

// Row is one (join key, metric) comparison.
type Row struct {
	Key    string  `json:"key"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Delta is the relative change (new-old)/old; 0 when both sides are
	// 0. When old is 0 and new is not, Delta is 0 and Appeared is set —
	// the relative delta is undefined but the change is real.
	Delta    float64 `json:"delta"`
	Appeared bool    `json:"appeared,omitempty"`
	// OnlyIn is "old" or "new" when the metric exists on only that side
	// of a matched key; the missing side's value reads 0 and the row
	// always regresses.
	OnlyIn    string `json:"only_in,omitempty"`
	Regressed bool   `json:"regressed,omitempty"`
}

// Report is a full comparison.
type Report struct {
	Threshold float64  `json:"threshold"`
	Rows      []Row    `json:"rows"`
	OnlyOld   []string `json:"only_old,omitempty"`
	OnlyNew   []string `json:"only_new,omitempty"`
	// Regressions counts rows whose delta crossed the threshold or whose
	// metric is one-sided, plus, under RequireMatch, unmatched keys;
	// acrreport exits 1 when it is non-zero.
	Regressions int `json:"regressions"`
}

// Options tunes a comparison.
type Options struct {
	// Threshold is the relative-delta gate (0.05 = 5%). Zero means any
	// change at all regresses, which is the right default only for
	// fully deterministic metrics.
	Threshold float64
	// Metrics, when non-empty, restricts the comparison to metrics whose
	// family name is in the list.
	Metrics []string
	// RequireMatch makes unmatched join keys on either side count as
	// regressions instead of notes.
	RequireMatch bool
}

func (o Options) wants(metric string) bool {
	if len(o.Metrics) == 0 {
		return true
	}
	for _, m := range o.Metrics {
		if m == metric {
			return true
		}
	}
	return false
}

// compare builds one Row and classifies it against the threshold: drift in
// either direction regresses.
func compare(key, metric string, oldV, newV float64, threshold float64) Row {
	r := Row{Key: key, Metric: metric, Old: oldV, New: newV}
	switch {
	case oldV == 0 && newV == 0:
		// No change, delta 0.
	case oldV == 0:
		r.Appeared = true
	default:
		r.Delta = (newV - oldV) / math.Abs(oldV)
	}
	r.Regressed = math.Abs(r.Delta) > threshold || r.Appeared
	return r
}

// finish sorts rows (regressions first, then key/metric), fills the
// summary counters and applies RequireMatch.
func (r *Report) finish(opt Options) {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		if a.Regressed != b.Regressed {
			return a.Regressed
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Metric < b.Metric
	})
	sort.Strings(r.OnlyOld)
	sort.Strings(r.OnlyNew)
	for _, row := range r.Rows {
		if row.Regressed {
			r.Regressions++
		}
	}
	if opt.RequireMatch {
		r.Regressions += len(r.OnlyOld) + len(r.OnlyNew)
	}
}

// Render writes the human-readable delta table plus a gate summary.
func (r *Report) Render(w io.Writer) error {
	t := &stats.Table{
		Title: fmt.Sprintf("profile delta (threshold %.2f%%)", 100*r.Threshold),
		Cols:  []string{"key", "metric", "old", "new", "delta%", "gate"},
	}
	for _, row := range r.Rows {
		oldV, newV := formatNum(row.Old), formatNum(row.New)
		delta := fmt.Sprintf("%+.2f", 100*row.Delta)
		switch {
		case row.OnlyIn == "old":
			newV, delta = "-", "only old"
		case row.OnlyIn == "new":
			oldV, delta = "-", "only new"
		case row.Appeared:
			delta = "new"
		}
		gate := "ok"
		if row.Regressed {
			gate = "REGRESSED"
		}
		t.AddRow(row.Key, row.Metric, oldV, newV, delta, gate)
	}
	t.Render(w)
	for _, k := range r.OnlyOld {
		fmt.Fprintf(w, "only in old: %s\n", k)
	}
	for _, k := range r.OnlyNew {
		fmt.Fprintf(w, "only in new: %s\n", k)
	}
	if r.Regressions > 0 {
		fmt.Fprintf(w, "\n%d regression(s) beyond %.2f%%\n", r.Regressions, 100*r.Threshold)
	} else {
		fmt.Fprintf(w, "\nno regressions beyond %.2f%% (%d comparisons)\n", 100*r.Threshold, len(r.Rows))
	}
	return nil
}

// RenderJSON writes the report as indented JSON.
func (r *Report) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
