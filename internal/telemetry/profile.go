package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SnapshotFamily is the JSON-snapshot form of one metric family.
type SnapshotFamily struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    string           `json:"kind"`
	Labels  []string         `json:"labels,omitempty"`
	Buckets []float64        `json:"buckets,omitempty"`
	Series  []SnapshotSeries `json:"series"`
}

// SnapshotSeries is one series inside a SnapshotFamily. Counters and gauges
// carry Value; histograms carry BucketCounts (per-bucket, final entry = the
// +Inf overflow), Sum and Count.
type SnapshotSeries struct {
	LabelValues  []string `json:"label_values,omitempty"`
	Value        float64  `json:"value,omitempty"`
	BucketCounts []uint64 `json:"bucket_counts,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	Count        uint64   `json:"count,omitempty"`
}

// Profile is an exportable run profile: metadata about the run plus the full
// registry snapshot. Meta keys serialise sorted, families in creation order,
// so identical runs produce byte-identical profiles.
type Profile struct {
	Meta     map[string]string `json:"meta,omitempty"`
	Families []SnapshotFamily  `json:"families"`
}

// Snapshot copies the registry's current state into plain serialisable
// structs.
func (r *Registry) Snapshot() []SnapshotFamily {
	out := make([]SnapshotFamily, 0, len(r.families))
	for _, f := range r.families {
		sf := SnapshotFamily{
			Name:    f.Name,
			Help:    f.Help,
			Kind:    f.Kind.String(),
			Labels:  append([]string(nil), f.LabelNames...),
			Buckets: append([]float64(nil), f.buckets...),
			Series:  make([]SnapshotSeries, 0, len(f.series)),
		}
		for _, s := range f.series {
			ss := SnapshotSeries{LabelValues: append([]string(nil), s.LabelValues...)}
			if f.Kind == KindHistogram {
				ss.BucketCounts = append([]uint64(nil), s.bucketCounts...)
				ss.Sum = s.sum
				ss.Count = s.count
			} else {
				ss.Value = s.value
			}
			sf.Series = append(sf.Series, ss)
		}
		out = append(out, sf)
	}
	return out
}

// WriteProfile writes a run profile — metadata plus registry snapshot — as
// indented JSON. encoding/json serialises the meta map with sorted keys, so
// output is deterministic.
func WriteProfile(w io.Writer, meta map[string]string, reg *Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Profile{Meta: meta, Families: reg.Snapshot()})
}

// ReadProfile parses a profile written by WriteProfile and performs basic
// shape validation (non-empty families, known kinds, label arity, and
// histogram bounds non-empty and sorted — Registry.Histogram's rules — with
// one count per bound plus the overflow).
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if len(p.Families) == 0 {
		return nil, fmt.Errorf("profile: no metric families")
	}
	for _, f := range p.Families {
		switch f.Kind {
		case "counter", "gauge", "histogram":
		default:
			return nil, fmt.Errorf("profile: family %q has unknown kind %q", f.Name, f.Kind)
		}
		if f.Kind == "histogram" && (len(f.Buckets) == 0 || !sort.Float64sAreSorted(f.Buckets)) {
			return nil, fmt.Errorf("profile: histogram %q needs non-empty sorted buckets, got %v", f.Name, f.Buckets)
		}
		for _, s := range f.Series {
			if len(s.LabelValues) != len(f.Labels) {
				return nil, fmt.Errorf("profile: family %q: series has %d label values, schema has %d",
					f.Name, len(s.LabelValues), len(f.Labels))
			}
			if f.Kind == "histogram" && len(s.BucketCounts) != len(f.Buckets)+1 {
				return nil, fmt.Errorf("profile: family %q: %d bucket counts for %d bounds",
					f.Name, len(s.BucketCounts), len(f.Buckets))
			}
		}
	}
	return &p, nil
}

// ValidateTrace parses Chrome trace-event JSON produced by Tracer (the JSON
// array form) and checks each event has the fields Perfetto requires for its
// phase. It returns the number of events. This is the trace half of the CI
// smoke gate.
func ValidateTrace(r io.Reader) (int, error) {
	var events []map[string]any
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("trace: no events")
	}
	for i, ev := range events {
		phase, ok := ev["ph"].(string)
		if !ok {
			return 0, fmt.Errorf("trace: event %d missing ph", i)
		}
		if _, ok := ev["name"].(string); !ok {
			return 0, fmt.Errorf("trace: event %d missing name", i)
		}
		need := func(keys ...string) error {
			for _, k := range keys {
				if _, ok := ev[k]; !ok {
					return fmt.Errorf("trace: event %d (ph=%s) missing %q", i, phase, k)
				}
			}
			return nil
		}
		var err error
		switch phase {
		case "M":
			err = need("pid", "args")
		case "X":
			err = need("pid", "tid", "ts", "dur")
		case "i", "I":
			err = need("pid", "tid", "ts")
		case "b", "e":
			err = need("pid", "tid", "ts", "id", "cat")
		default:
			err = fmt.Errorf("trace: event %d has unsupported phase %q", i, phase)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(events), nil
}
