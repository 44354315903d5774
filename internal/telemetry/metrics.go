// Package telemetry is the observability layer of the reproduction: a typed
// metrics registry (counters, gauges, fixed-bucket histograms with labels),
// a Collector that turns the simulator's one-way event stream and run
// results into metrics, a streaming Chrome trace-event encoder, and
// Prometheus/JSON exporters for run profiles.
//
// Everything here observes; nothing feeds back into the machine. The
// simulator's determinism invariant — identical configs produce bit-identical
// results with telemetry attached or not — is preserved by construction and
// enforced by the sim package's determinism regression tests. Registry
// contents are themselves deterministic for a deterministic instrumentation
// order: families and series export in creation order.
package telemetry

import (
	"fmt"
	"sort"
)

// Kind types a metric family.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "metric"
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Registries are not safe for concurrent use: the simulator is
// single-goroutine, and driver-side use guards externally.
type Registry struct {
	families []*Family
	byName   map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Families returns the registered families in creation order.
func (r *Registry) Families() []*Family { return r.families }

func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *Family {
	if f, ok := r.byName[name]; ok {
		if f.Kind != kind || len(f.LabelNames) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &Family{Name: name, Help: help, Kind: kind,
		LabelNames: append([]string(nil), labels...),
		buckets:    append([]float64(nil), buckets...),
		byKey:      make(map[string]*Series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) a monotonically increasing counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.register(name, help, KindCounter, nil, labels)
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.register(name, help, KindGauge, nil, labels)
}

// Histogram registers (or returns) a fixed-bucket histogram family. Buckets
// are upper bounds in increasing order; an implicit +Inf bucket is added.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets not sorted", name))
	}
	return r.register(name, help, KindHistogram, buckets, labels)
}

// Family is one named metric with a fixed label schema. Its series are the
// concrete label-value instantiations, created on first use.
type Family struct {
	Name       string
	Help       string
	Kind       Kind
	LabelNames []string

	buckets []float64
	series  []*Series
	byKey   map[string]*Series
}

// Buckets returns a histogram family's upper bounds (nil otherwise).
func (f *Family) Buckets() []float64 { return f.buckets }

// Series returns the family's series in creation order.
func (f *Family) Series() []*Series { return f.series }

// With returns the series for the given label values, creating it on first
// use. The number of values must match the family's label schema.
func (f *Family) With(labelValues ...string) *Series {
	if len(labelValues) != len(f.LabelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.Name, len(f.LabelNames), len(labelValues)))
	}
	key := ""
	for _, v := range labelValues {
		key += v + "\x00"
	}
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &Series{family: f, LabelValues: append([]string(nil), labelValues...)}
	if f.Kind == KindHistogram {
		s.bucketCounts = make([]uint64, len(f.buckets)+1)
	}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Add increments the family's label-less series (counters).
func (f *Family) Add(v float64) { f.With().Add(v) }

// Set sets the family's label-less series (gauges).
func (f *Family) Set(v float64) { f.With().Set(v) }

// Observe records one observation on the family's label-less series
// (histograms).
func (f *Family) Observe(v float64) { f.With().Observe(v) }

// Series is one labelled instance of a family.
type Series struct {
	family      *Family
	LabelValues []string

	value        float64
	bucketCounts []uint64
	sum          float64
	count        uint64
}

// Add increments a counter series. Negative deltas panic: counters are
// monotone by contract.
func (s *Series) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("telemetry: counter %q decremented", s.family.Name))
	}
	s.value += v
}

// Set sets a gauge series.
func (s *Series) Set(v float64) { s.value = v }

// Value returns a counter/gauge series' current value.
func (s *Series) Value() float64 { return s.value }

// Observe records one histogram observation.
func (s *Series) Observe(v float64) { s.ObserveN(v, 1) }

// ObserveN records n identical histogram observations (used to import
// pre-bucketed substrate histograms such as ckpt.ReplayHist).
func (s *Series) ObserveN(v float64, n uint64) {
	if s.bucketCounts == nil {
		panic(fmt.Sprintf("telemetry: Observe on non-histogram %q", s.family.Name))
	}
	i := sort.SearchFloat64s(s.family.buckets, v)
	s.bucketCounts[i] += n
	s.sum += v * float64(n)
	s.count += n
}

// Hist returns a histogram series' per-bucket counts (including the final
// +Inf bucket), sum and total count.
func (s *Series) Hist() (buckets []uint64, sum float64, count uint64) {
	return s.bucketCounts, s.sum, s.count
}
