package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"acr/internal/telemetry"
)

// ProfileSet is one side of a profile comparison: every profile found at a
// path (a single JSON file, or every *.json in a directory), keyed by its
// canonicalised meta and flattened to name{labels} samples.
type ProfileSet struct {
	Path string
	// Samples maps profile key → metric id → value.
	Samples map[string]map[string]float64
}

// LoadProfiles loads a run-profile JSON file or a directory of them.
func LoadProfiles(path string) (*ProfileSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no *.json profiles", path)
		}
	}
	out := &ProfileSet{Path: path, Samples: make(map[string]map[string]float64)}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		p, err := telemetry.ReadProfile(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		key := metaKey(p.Meta)
		if key == "" {
			// Meta-less profiles (bare registry dumps) fall back to the
			// file name so two dirs with matching layouts still join.
			key = filepath.Base(file)
		}
		if _, dup := out.Samples[key]; dup {
			return nil, fmt.Errorf("%s: duplicate profile key %q", file, key)
		}
		out.Samples[key] = flattenProfile(p)
	}
	return out, nil
}

// metaKey canonicalises a profile's meta map: sorted k=v pairs.
func metaKey(meta map[string]string) string {
	keys := sortedKeys(meta)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + meta[k]
	}
	return strings.Join(parts, ",")
}

// flattenProfile turns a profile's families into flat samples. Histograms
// contribute their count, sum and interpolated p50/p99 — the shape drifts
// a regression differ can actually gate on.
func flattenProfile(p *telemetry.Profile) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range p.Families {
		for _, s := range f.Series {
			id := f.Name
			if len(s.LabelValues) > 0 {
				pairs := make([]string, len(s.LabelValues))
				for i, v := range s.LabelValues {
					name := ""
					if i < len(f.Labels) {
						name = f.Labels[i]
					}
					pairs[i] = name + "=" + v
				}
				id += "{" + strings.Join(pairs, ",") + "}"
			}
			if f.Kind != "histogram" {
				out[id] = s.Value
				continue
			}
			out[id+":count"] = float64(s.Count)
			out[id+":sum"] = s.Sum
			if p50, ok := telemetry.HistQuantile(f.Buckets, s.BucketCounts, 0.50); ok {
				out[id+":p50"] = p50
			}
			if p99, ok := telemetry.HistQuantile(f.Buckets, s.BucketCounts, 0.99); ok {
				out[id+":p99"] = p99
			}
		}
	}
	return out
}

// familyOf strips a metric id back to its family name for Options.Metrics
// filtering.
func familyOf(id string) string {
	if i := strings.IndexAny(id, "{:"); i >= 0 {
		return id[:i]
	}
	return id
}

// DiffProfiles compares two profile sets. Simulated telemetry is
// deterministic, so drift in either direction beyond the threshold
// regresses, and a sample id present on only one side of a matched profile
// (a family or series that appeared or vanished) always does.
func DiffProfiles(oldSet, newSet *ProfileSet, opt Options) *Report {
	r := &Report{Threshold: opt.Threshold}
	for _, key := range sortedKeys(oldSet.Samples) {
		oldSamples := oldSet.Samples[key]
		newSamples, ok := newSet.Samples[key]
		if !ok {
			r.OnlyOld = append(r.OnlyOld, key)
			continue
		}
		for _, id := range sortedKeys(oldSamples, newSamples) {
			if !opt.wants(familyOf(id)) {
				continue
			}
			oldV, inOld := oldSamples[id]
			newV, inNew := newSamples[id]
			switch {
			case !inNew:
				r.Rows = append(r.Rows, Row{Key: key, Metric: id, Old: oldV, OnlyIn: "old", Regressed: true})
			case !inOld:
				r.Rows = append(r.Rows, Row{Key: key, Metric: id, New: newV, OnlyIn: "new", Regressed: true})
			default:
				r.Rows = append(r.Rows, compare(key, id, oldV, newV, opt.Threshold))
			}
		}
	}
	for key := range newSet.Samples {
		if _, ok := oldSet.Samples[key]; !ok {
			r.OnlyNew = append(r.OnlyNew, key)
		}
	}
	r.finish(opt)
	return r
}

// sortedKeys returns the union of the maps' keys, sorted.
func sortedKeys[V any](maps ...map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range maps {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
