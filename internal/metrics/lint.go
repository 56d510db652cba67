// Lint validates Prometheus text-format exposition output. It is the
// checker behind the package's own round-trip tests and the server's
// end-to-end /metrics test: WritePrometheus output must always lint
// clean, so a scraper never chokes on what we serve.
package metrics

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	lintNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	lintLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// lintSampleRe splits a sample line into name, optional label block,
	// and value.
	lintSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// Lint checks data against the Prometheus text exposition format
// (0.0.4): newline termination, HELP/TYPE lines preceding their
// samples, valid metric and label names, parseable values, and no
// duplicate series. It returns every violation found (nil = clean).
func Lint(data []byte) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	text := string(data)
	if text != "" && !strings.HasSuffix(text, "\n") {
		errs = append(errs, fmt.Errorf("exposition must end with a newline"))
	}
	typed := make(map[string]string) // family → declared type
	seen := make(map[string]bool)    // full series key → dup check
	helped := make(map[string]bool)  // family → HELP seen
	sampled := make(map[string]bool) // family → sample emitted
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		n := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				fail(n, "malformed comment %q (want # HELP/# TYPE)", line)
				continue
			}
			name := parts[2]
			if !lintNameRe.MatchString(name) {
				fail(n, "invalid metric name %q", name)
				continue
			}
			if parts[1] == "TYPE" {
				if len(parts) != 4 {
					fail(n, "TYPE line missing type")
					continue
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					fail(n, "unknown metric type %q", parts[3])
				}
				if _, dup := typed[name]; dup {
					fail(n, "duplicate TYPE for %s", name)
				}
				if sampled[name] {
					fail(n, "TYPE for %s after its samples", name)
				}
				typed[name] = parts[3]
			} else {
				if helped[name] {
					fail(n, "duplicate HELP for %s", name)
				}
				helped[name] = true
			}
			continue
		}
		m := lintSampleRe.FindStringSubmatch(line)
		if m == nil {
			fail(n, "malformed sample %q", line)
			continue
		}
		name, labels, val := m[1], m[2], m[3]
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		sampled[name], sampled[fam] = true, true
		if labels != "" {
			if err := lintLabels(labels); err != nil {
				fail(n, "sample %s: %v", name, err)
			}
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			if val != "+Inf" && val != "-Inf" && val != "NaN" {
				fail(n, "sample %s: unparseable value %q", name, val)
			}
		}
		key := name + labels
		if seen[key] {
			fail(n, "duplicate series %s", key)
		}
		seen[key] = true
	}
	return errs
}

// lintLabels validates one {k="v",...} block.
func lintLabels(block string) error {
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if inner == "" {
		return nil
	}
	rest := inner
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return fmt.Errorf("label pair %q missing '='", rest)
		}
		key := rest[:eq]
		if !lintLabelRe.MatchString(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("label %s: value must be quoted", key)
		}
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for j := 1; j < len(rest); j++ {
			if rest[j] == '\\' {
				j++
				continue
			}
			if rest[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("label %s: unterminated value", key)
		}
		rest = rest[end+1:]
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return fmt.Errorf("label %s: expected ',' between pairs", key)
		}
		rest = rest[1:]
	}
	return nil
}
