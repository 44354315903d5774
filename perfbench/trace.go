package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// pass share Pass; Parent is the enclosing span's ID, -1 for a pass root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes share the traced code path.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
}

func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: t.pass, Name: name, Job: job,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open starts a span whose end is set by close once its children are in.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, "", start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t != nil && id >= 0 {
		t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	}
}

// selfSeconds sums, per span name, each span's duration minus the time its
// direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// Modules of the repository that CPU time is attributed to; "go" is the Go
// runtime, "other" every remaining repository package and the benchmark's
// own code.
var modules = []string{"bench", "workloads", "sim", "cpu", "isa", "mem", "slice", "core", "ckpt", "go", "other"}

// attribution accumulates CPU-profile samples by module of their leaf
// function. Standard-library helpers other than the runtime (math/bits,
// sort, ...) count toward the repository function that called them.
type attribution struct {
	totalNS  int64
	moduleNS map[string]int64
	gcNS     int64
}

func newAttribution() *attribution {
	return &attribution{moduleNS: make(map[string]int64)}
}

func (a *attribution) share(module string) float64 {
	return 100 * ratio(float64(a.moduleNS[module]), float64(a.totalNS))
}

func (a *attribution) gcShare() float64 {
	return 100 * ratio(float64(a.gcNS), float64(a.totalNS))
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/")
}

// repoModule maps a function name to its repository module, if it has one.
func repoModule(fn string) (string, bool) {
	const prefix = "acr/internal/"
	if strings.HasPrefix(fn, prefix) {
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "acr/") {
		return "other", true
	}
	return "", false
}

// gcRoots are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collector work (background or assist marking,
// sweeping, scavenging).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.deductSweepCredit", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.scanobject",
}

// classify returns the module a stack (leaf first) is charged to, and
// whether it is garbage-collector work.
func classify(stack []string) (string, bool) {
	gc := false
	for _, fn := range stack {
		for _, r := range gcRoots {
			if strings.HasPrefix(fn, r) {
				gc = true
			}
		}
	}
	if len(stack) == 0 || isRuntime(stack[0]) {
		return "go", gc
	}
	for _, fn := range stack {
		if m, ok := repoModule(fn); ok {
			return m, gc
		}
	}
	return "go", gc
}

// add decodes one gzipped runtime/pprof CPU profile and accumulates its
// samples' CPU time.
func (a *attribution) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		ns := s.values[p.valueIndex]
		m, gc := classify(stack)
		a.totalNS += ns
		a.moduleNS[m] += ns
		if gc {
			a.gcNS += ns
		}
	}
	return nil
}

// profile is the subset of the pprof protobuf format (profile.proto) that
// attribution needs.
type profile struct {
	strings    []string
	functions  map[uint64]uint64   // function id -> name string index
	locations  map[uint64][]uint64 // location id -> function ids, innermost first
	samples    []sample
	valueIndex int // index of the "cpu" sample value
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields splits a message into its fields.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, n, err = readVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errTruncated
			}
			f.data, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{functions: make(map[uint64]uint64), locations: make(map[uint64][]uint64)}
	var sampleTypes []uint64
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				if g.num == 1 {
					sampleTypes = append(sampleTypes, g.value)
				}
			}
		case 2: // sample
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locations, err = varints(g, s.locations); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					line, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							funcs = append(funcs, h.value)
						}
					}
				}
			}
			p.locations[id] = funcs
		case 5: // function
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if p.str(t) == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile has no sample types")
	}
	return p, nil
}
