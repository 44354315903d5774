package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers, then one sample line per series,
// histograms expanded into cumulative _bucket{le=...}, _sum and _count.
// Families and series render in creation order, so deterministic
// instrumentation yields byte-identical expositions.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		if len(f.series) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.series {
			if f.Kind != KindHistogram {
				fmt.Fprintf(bw, "%s%s %s\n", f.Name,
					labelString(f.LabelNames, s.LabelValues, "", ""), formatValue(s.value))
				continue
			}
			cum := uint64(0)
			for i, n := range s.bucketCounts {
				cum += n
				le := "+Inf"
				if i < len(f.buckets) {
					le = formatValue(f.buckets[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name,
					labelString(f.LabelNames, s.LabelValues, "le", le), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name,
				labelString(f.LabelNames, s.LabelValues, "", ""), formatValue(s.sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.Name,
				labelString(f.LabelNames, s.LabelValues, "", ""), s.count)
		}
	}
	return bw.Flush()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {a="x",b="y"} plus an optional extra pair; empty
// schemas with no extra render as "".
func labelString(names, values []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders floats the way Prometheus expects: integers without
// an exponent or trailing zeros.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExpositionStats summarises a parsed exposition.
type ExpositionStats struct {
	Families int
	Samples  int
}

// ParseExposition validates Prometheus text exposition format: TYPE
// comments naming a known kind, and sample lines of the shape
// name{label="value",...} number. It returns family/sample counts, erroring
// on the first malformed line. This is the validation half of the CI smoke
// gate (and of round-trip tests against WritePrometheus).
func ParseExposition(r io.Reader) (ExpositionStats, error) {
	var st ExpositionStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) < 4 {
					return st, fmt.Errorf("line %d: malformed TYPE comment", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return st, fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				st.Families++
			}
			continue
		}
		if _, err := parseSample(text); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		st.Samples++
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if st.Samples == 0 {
		return st, fmt.Errorf("exposition contains no samples")
	}
	return st, nil
}

// Label is one parsed name="value" pair of a sample's label set.
type Label struct {
	Name  string
	Value string
}

// Sample is one parsed exposition sample line: metric name, label pairs in
// exposition order, and the value. Histogram expansion lines (_bucket with
// le, _sum, _count) parse as plain samples — Sample is the wire-level view.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// ParseSamples parses a Prometheus text exposition into its sample lines,
// unescaping label values. Comments and blank lines are skipped; the first
// malformed line is an error. Together with WritePrometheus it forms the
// round-trip pair the exposition tests assert equality over.
func ParseSamples(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(text string) (Sample, error) {
	var sample Sample
	name := text
	rest := ""
	if i := strings.IndexByte(text, '{'); i >= 0 {
		name = text[:i]
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return sample, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(text[i+1 : j])
		if err != nil {
			return sample, err
		}
		sample.Labels = labels
		rest = strings.TrimSpace(text[j+1:])
	} else {
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return sample, fmt.Errorf("sample %q has no value", text)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validMetricName(name) {
		return sample, fmt.Errorf("invalid metric name %q", name)
	}
	sample.Name = name
	// Value, optionally followed by a timestamp.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return sample, fmt.Errorf("sample %q: want value [timestamp]", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sample, fmt.Errorf("sample %q: bad value: %w", text, err)
	}
	sample.Value = v
	return sample, nil
}

func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair %q missing '='", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !validMetricName(name) {
			return nil, fmt.Errorf("invalid label name %q", s[:eq])
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label value not quoted")
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, Label{Name: name, Value: unescapeLabel(s[1:end])})
		s = strings.TrimSpace(s[end+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// unescapeLabel reverses escapeLabel: \\, \" and \n escapes back to their
// literal characters.
func unescapeLabel(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
