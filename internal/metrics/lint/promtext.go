// Package lint validates Prometheus text exposition output (format
// 0.0.4) without importing any Prometheus code: almrun checks every
// snapshot before writing it, and the exporters' tests and the
// engine's metrics golden (TestMetricsByteIdentical) run their exports
// through Check, so a malformed metric name, label escape or bucket
// layout fails the build instead of a scrape.
package lint

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validTypes are the sample types the text format admits.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// Check validates a Prometheus text-format document. It returns the
// first violation found, with its 1-based line number.
func Check(data []byte) error {
	types := map[string]string{} // metric name -> declared type
	sampled := map[string]bool{} // base names that already emitted samples
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		lno := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line, types, sampled); err != nil {
				return fmt.Errorf("line %d: %w", lno, err)
			}
			continue
		}
		if err := checkSample(line, types); err != nil {
			return fmt.Errorf("line %d: %w", lno, err)
		}
		name, _, _ := splitSample(line)
		sampled[baseName(name, types)] = true
	}
	return nil
}

// checkComment validates # TYPE and # HELP lines; other comments pass.
func checkComment(line string, types map[string]string, sampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		if !validTypes[typ] {
			return fmt.Errorf("unknown sample type %q for %s", typ, name)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE declaration for %s", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE declaration for %s after its samples", name)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 || !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	}
	return nil
}

// splitSample separates a sample line into metric name, label section
// (between braces, possibly empty) and the remainder (value, optional
// timestamp).
func splitSample(line string) (name, labels, rest string) {
	brace := strings.IndexByte(line, '{')
	if brace >= 0 && brace < strings.IndexByte(line+" ", ' ') {
		name = line[:brace]
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return name, "", ""
		}
		return name, line[brace+1 : end], strings.TrimSpace(line[end+1:])
	}
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return line, "", ""
	}
	return line[:sp], "", strings.TrimSpace(line[sp+1:])
}

// checkSample validates one sample line against the declared types.
func checkSample(line string, types map[string]string) error {
	name, labels, rest := splitSample(line)
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	base := baseName(name, types)
	typ, declared := types[base]
	if !declared {
		return fmt.Errorf("sample %s has no preceding TYPE declaration", name)
	}
	hasLE := false
	if labels != "" {
		var err error
		hasLE, err = checkLabels(labels)
		if err != nil {
			return fmt.Errorf("metric %s: %w", name, err)
		}
	}
	if typ == "histogram" && strings.HasSuffix(name, "_bucket") && !hasLE {
		return fmt.Errorf("histogram bucket %s lacks an le label", name)
	}
	if rest == "" {
		return fmt.Errorf("sample %s has no value", name)
	}
	valueField := strings.Fields(rest)
	if len(valueField) > 2 {
		return fmt.Errorf("sample %s has trailing garbage %q", name, rest)
	}
	if err := checkValue(valueField[0]); err != nil {
		return fmt.Errorf("sample %s: %w", name, err)
	}
	if len(valueField) == 2 {
		if _, err := strconv.ParseInt(valueField[1], 10, 64); err != nil {
			return fmt.Errorf("sample %s: bad timestamp %q", name, valueField[1])
		}
	}
	return nil
}

// baseName strips histogram/summary sample suffixes when the stripped
// name carries the TYPE declaration.
func baseName(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// checkLabels validates the label section and reports whether an `le`
// label is present.
func checkLabels(s string) (hasLE bool, err error) {
	rest := s
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return hasLE, fmt.Errorf("malformed label section %q", s)
		}
		lname := rest[:eq]
		if !labelNameRe.MatchString(lname) {
			return hasLE, fmt.Errorf("invalid label name %q", lname)
		}
		if lname == "le" {
			hasLE = true
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return hasLE, fmt.Errorf("label %s value is not quoted", lname)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return hasLE, fmt.Errorf("label %s value has no closing quote", lname)
		}
		rest = rest[end+1:]
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return hasLE, fmt.Errorf("expected ',' between labels in %q", s)
		}
		rest = rest[1:]
	}
	return hasLE, nil
}

// checkValue validates a sample value.
func checkValue(v string) error {
	switch v {
	case "+Inf", "-Inf", "NaN":
		return nil
	}
	if _, err := strconv.ParseFloat(v, 64); err != nil {
		return fmt.Errorf("bad value %q", v)
	}
	return nil
}
