package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ExpositionMetric is one parsed sample line from the text exposition
// format: bare metric name, its labels in order, and the value.
type ExpositionMetric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// ParseExposition validates r against the Prometheus text exposition
// grammar (version 0.0.4) strictly enough to catch the mistakes a
// hand-rolled emitter can make: bad metric/label names, unescaped label
// values, non-numeric sample values, TYPE lines naming a different
// metric than the samples that follow, duplicate TYPE declarations, and
// duplicate series (the same metric name with the same label set emitted
// twice — Prometheus keeps one sample arbitrarily, so a duplicate is
// always an emitter bug). It returns every parsed sample. The CI lint
// feeds /metricsz output through it so a malformed line fails a unit
// test rather than a production scrape.
func ParseExposition(r io.Reader) ([]ExpositionMetric, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []ExpositionMetric
	typed := map[string]string{} // family name -> type
	seen := map[string]bool{}    // name + canonical label set
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseCommentLine(line, typed); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		m, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := checkTyped(m, typed); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if key := seriesKey(m); seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		} else {
			seen[key] = true
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseCommentLine(line string, typed map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) != 4 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := typed[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		typed[fields[2]] = fields[3]
	}
	return nil
}

func parseSampleLine(line string) (ExpositionMetric, error) {
	var m ExpositionMetric
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	m.Name = line[:i]
	if !metricNameRe.MatchString(m.Name) {
		return m, fmt.Errorf("invalid metric name %q", m.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return m, err
		}
		m.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimLeft(rest, " ")
	// Value, optionally followed by a timestamp.
	valStr, _, _ := strings.Cut(rest, " ")
	if valStr == "" {
		return m, fmt.Errorf("missing value in %q", line)
	}
	v, err := parseExpositionValue(valStr)
	if err != nil {
		return m, fmt.Errorf("invalid value %q: %w", valStr, err)
	}
	m.Value = v
	return m, nil
}

func parseExpositionValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string) ([]Label, error) {
	var out []Label
	i := 0
	for i < len(s) {
		// Label name up to '='.
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair at %q", s[i:])
		}
		name := s[i : i+eq]
		if !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			if c == '\n' {
				return nil, fmt.Errorf("label %s: raw newline in value", name)
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		out = append(out, Label{Name: name, Value: val.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s[i:])
			}
			i++
		}
	}
	return out, nil
}

// seriesKey renders a sample's identity — metric name plus its label set
// in sorted order, so the same pairs in a different order still collide —
// for duplicate-series detection.
func seriesKey(m ExpositionMetric) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	labels := make([]Label, len(m.Labels))
	copy(labels, m.Labels)
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// checkTyped verifies a sample belongs to a declared family when one was
// declared, honoring the histogram/summary suffix conventions.
func checkTyped(m ExpositionMetric, typed map[string]string) error {
	if _, ok := typed[m.Name]; ok {
		return nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(m.Name, suffix)
		if base == m.Name {
			continue
		}
		if t, ok := typed[base]; ok {
			if t != "histogram" && t != "summary" {
				return fmt.Errorf("sample %s has suffix %s but %s is a %s", m.Name, suffix, base, t)
			}
			return nil
		}
	}
	if len(typed) > 0 {
		return fmt.Errorf("sample %s has no TYPE declaration", m.Name)
	}
	return nil
}
