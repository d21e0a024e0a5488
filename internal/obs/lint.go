package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text exposition (format version 0.0.4):
// well-formed comment and sample lines, valid metric/label names, parseable
// values, TYPE declared at most once and before the family's first sample,
// no duplicate series, and — for histogram families — ascending cumulative
// le buckets ending in +Inf with consistent _sum/_count lines. It returns
// every violation found (empty slice = valid), so callers can report all
// problems of a scrape at once. The serve tests run it against /v1/metrics
// bodies, and scripts/servesmoke against a live node's.
func Lint(r io.Reader) []error {
	l := &linter{
		types: map[string]metricKind{},
		seen:  map[string]bool{},
		hists: map[string]*histState{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		l.line(n, sc.Text())
	}
	if err := sc.Err(); err != nil {
		l.errs = append(l.errs, fmt.Errorf("reading exposition: %w", err))
	}
	for name, h := range l.hists {
		h.finish(l, name)
	}
	return l.errs
}

type linter struct {
	errs  []error
	types map[string]metricKind // family -> declared TYPE
	// sampled marks families that already emitted a sample, so a late TYPE
	// line is flagged.
	sampledFams map[string]bool
	seen        map[string]bool // full series key -> duplicate detection
	hists       map[string]*histState
}

// histState accumulates one histogram series' bucket lines for the
// cumulative / +Inf / sum / count consistency checks.
type histState struct {
	line     int
	prevLE   float64
	prevCum  int64
	buckets  int
	sawInf   bool
	infCount int64
	count    int64
	sawCount bool
	sawSum   bool
}

func (h *histState) finish(l *linter, name string) {
	if !h.sawInf {
		l.errf(h.line, "histogram %s has no le=\"+Inf\" bucket", name)
	}
	if !h.sawSum {
		l.errf(h.line, "histogram %s has no _sum sample", name)
	}
	if !h.sawCount {
		l.errf(h.line, "histogram %s has no _count sample", name)
	} else if h.sawInf && h.count != h.infCount {
		l.errf(h.line, "histogram %s: _count %d != +Inf bucket %d", name, h.count, h.infCount)
	}
}

func (l *linter) errf(line int, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("line %d: "+format, append([]any{line}, args...)...))
}

func (l *linter) line(n int, s string) {
	if strings.TrimSpace(s) == "" {
		return
	}
	if strings.HasPrefix(s, "#") {
		l.comment(n, s)
		return
	}
	l.sample(n, s)
}

func (l *linter) comment(n int, s string) {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 {
		return // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			l.errf(n, "malformed TYPE line %q", s)
			return
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			l.errf(n, "TYPE for invalid metric name %q", name)
		}
		switch metricKind(typ) {
		case kindCounter, kindGauge, kindHistogram, "summary", "untyped":
		default:
			l.errf(n, "unknown metric type %q for %s", typ, name)
			return
		}
		if _, dup := l.types[name]; dup {
			l.errf(n, "duplicate TYPE for %s", name)
		}
		if l.sampledFams[name] {
			l.errf(n, "TYPE for %s after its first sample", name)
		}
		l.types[name] = metricKind(typ)
	case "HELP":
		if len(fields) < 3 {
			l.errf(n, "malformed HELP line %q", s)
			return
		}
		if !validMetricName(fields[2]) {
			l.errf(n, "HELP for invalid metric name %q", fields[2])
		}
	}
}

// sample parses one sample line: name[{labels}] value [timestamp].
func (l *linter) sample(n int, s string) {
	name, rest := splitName(s)
	if !validMetricName(name) {
		l.errf(n, "invalid metric name in %q", s)
		return
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		l.errf(n, "%s: %v", name, err)
		return
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		l.errf(n, "%s: want 'value [timestamp]', got %q", name, strings.TrimSpace(rest))
		return
	}
	value, err := parseValue(fields[0])
	if err != nil {
		l.errf(n, "%s: bad value %q", name, fields[0])
		return
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			l.errf(n, "%s: bad timestamp %q", name, fields[1])
		}
	}

	key := name + "|" + labelKey(labels)
	if l.seen[key] {
		l.errf(n, "duplicate sample %s%s", name, renderLintLabels(labels))
	}
	l.seen[key] = true

	// Resolve the family: _bucket/_sum/_count samples of a declared
	// histogram belong to the base name.
	fam := name
	suffix := ""
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && l.types[base] == kindHistogram {
			fam, suffix = base, suf
			break
		}
	}
	if l.sampledFams == nil {
		l.sampledFams = map[string]bool{}
	}
	l.sampledFams[fam] = true

	if l.types[fam] == kindHistogram {
		l.histSample(n, fam, suffix, labels, value)
	} else if hasLabel(labels, "le") {
		l.errf(n, "%s: le label outside a histogram family", name)
	}
}

func (l *linter) histSample(n int, fam, suffix string, labels []lintLabel, value float64) {
	// One histState per (family, labels-minus-le) series.
	var rest []lintLabel
	le := ""
	for _, lb := range labels {
		if lb.name == "le" {
			le = lb.value
		} else {
			rest = append(rest, lb)
		}
	}
	key := fam + "|" + labelKey(rest)
	h := l.hists[key]
	if h == nil {
		h = &histState{line: n, prevLE: math.Inf(-1)}
		l.hists[key] = h
	}
	switch suffix {
	case "_bucket":
		if value != float64(int64(value)) || value < 0 {
			l.errf(n, "%s_bucket: non-integer or negative count %v", fam, value)
			return
		}
		cum := int64(value)
		if le == "+Inf" {
			h.sawInf = true
			h.infCount = cum
			if cum < h.prevCum {
				l.errf(n, "%s_bucket: +Inf count %d below previous bucket %d", fam, cum, h.prevCum)
			}
			return
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			l.errf(n, "%s_bucket: bad le %q", fam, le)
			return
		}
		if h.sawInf {
			l.errf(n, "%s_bucket: le=%q after +Inf", fam, le)
		}
		if bound <= h.prevLE && h.buckets > 0 {
			l.errf(n, "%s_bucket: le bounds not ascending (%v after %v)", fam, bound, h.prevLE)
		}
		if cum < h.prevCum {
			l.errf(n, "%s_bucket: cumulative count decreases (%d after %d)", fam, cum, h.prevCum)
		}
		h.prevLE, h.prevCum = bound, cum
		h.buckets++
	case "_sum":
		h.sawSum = true
	case "_count":
		if value != float64(int64(value)) || value < 0 {
			l.errf(n, "%s_count: non-integer or negative count %v", fam, value)
			return
		}
		h.sawCount = true
		h.count = int64(value)
	default:
		l.errf(n, "%s: bare sample of a histogram family", fam)
	}
}

type lintLabel struct{ name, value string }

func hasLabel(labels []lintLabel, name string) bool {
	for _, l := range labels {
		if l.name == name {
			return true
		}
	}
	return false
}

func labelKey(labels []lintLabel) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.name + "=" + l.value
	}
	return strings.Join(parts, ",")
}

func renderLintLabels(labels []lintLabel) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelKey(labels) + "}"
}

// splitName cuts a sample line at the end of the metric name.
func splitName(s string) (name, rest string) {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return s[:i], s[i:]
		}
	}
	return s, ""
}

// parseLabels parses an optional {a="x",...} block, honoring the exposition
// escapes (\\, \", \n) inside values.
func parseLabels(s string) ([]lintLabel, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	var labels []lintLabel
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j == len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		name := s[i:j]
		// le carries numeric bounds; every other label must be a valid name.
		if name != "le" && !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return nil, "", fmt.Errorf("label %s: missing quoted value", name)
		}
		var val strings.Builder
		k := j + 2
		for {
			if k >= len(s) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			switch s[k] {
			case '"':
				labels = append(labels, lintLabel{name, val.String()})
				i = k + 1
				goto next
			case '\\':
				if k+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[k+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: invalid escape \\%c", name, s[k+1])
				}
				k += 2
			default:
				val.WriteByte(s[k])
				k++
			}
		}
	next:
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}
