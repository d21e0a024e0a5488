// Package obs is the repository's dependency-free observability kit: a
// Prometheus-text metrics registry (sampled counters and gauges, fixed-bucket
// histograms), wall-clock spans (Span/SpanList) for phase profiles, and an
// exposition-format validator (Lint) shared by tests and scripts/servesmoke.
//
// # Ownership rules
//
// The registry deliberately offers two kinds of write paths with different
// contracts:
//
//   - Histogram.Observe is a set of atomic read-modify-writes. It is for
//     event-scoped paths — a job submitted, a dispatch sent — where the event
//     itself costs orders of magnitude more than one contended atomic. It
//     must NEVER be called per explored state.
//   - Per-state (hot-path) telemetry goes through the engine's own run
//     cell (core's workerCell): exactly one goroutine, the admitting loop,
//     writes it, with plain atomic stores (never an RMW, never a lock), and
//     the scrape side loads it lock-free. CounterFunc/GaugeFunc bridge
//     such externally-owned values into the exposition.
//
// Scrapes (WriteText) read everything through atomic loads or caller
// callbacks; they never lock a hot path.
//
// # Exposition stability
//
// The registry renders families in registration order, so unchanged values
// scrape byte-identically. Every taserved_* family name is a contract for
// dashboards, the smoke tools and the benchmark. Values owned elsewhere are
// bridged in through CounterFunc / GaugeFunc, which add no hot-path writes.
// Lint is the single format validator: unit tests and the smoke tool
// (scripts/servesmoke) run it, and every new family must pass it in CI
// (serve-smoke and cluster-smoke).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one exposition label pair.
type Label struct {
	Name  string
	Value string
}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Families render in registration order,
// so repeated scrapes of unchanged values are byte-identical — the property
// the /metrics-alias pinning test relies on.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// family is one metric name: TYPE, HELP, and its label-distinguished series.
type family struct {
	name    string
	help    string
	kind    metricKind
	metrics []*metric
}

// metric is one series of a family. Exactly one of the value sources is set.
type metric struct {
	labels []Label
	fn     func() int64 // CounterFunc / GaugeFunc
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds one series under name, creating or reusing the family.
// Registration is setup-time work: it panics on programmer errors (invalid
// name, kind mismatch, duplicate label set) instead of returning them.
func (r *Registry) register(name, help string, kind metricKind, m *metric) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range m.labels {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
	}
	sort.SliceStable(m.labels, func(i, j int) bool { return m.labels[i].Name < m.labels[j].Name })
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different type")
	}
	for _, prev := range f.metrics {
		if labelsEqual(prev.labels, m.labels) {
			panic("obs: duplicate series " + name + renderLabels(m.labels))
		}
	}
	f.metrics = append(f.metrics, m)
}

// CounterFunc registers a counter series whose value is sampled from fn at
// scrape time — the bridge for counters owned elsewhere (the engine's run
// cell, existing atomics). fn must be safe to call from any goroutine and
// should be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, &metric{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindGauge, &metric{labels: labels, fn: fn})
}

// Histogram registers and returns a fixed-bucket histogram. bounds are the
// inclusive bucket upper limits, strictly ascending; the implicit +Inf bucket
// is always appended. An observation lands in the first bucket whose bound is
// >= the value (Prometheus le semantics).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram " + name + " bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.register(name, help, kindHistogram, &metric{labels: labels, hist: h})
	return h
}

// Histogram counts observations into fixed buckets. Observe is an atomic
// RMW per call: event-scoped paths only, never per explored state.
type Histogram struct {
	bounds []float64      // ascending upper limits
	counts []atomic.Int64 // per-bucket (non-cumulative); last = +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the smallest i with bounds[i] >= v — the first
	// le bucket the value fits (inclusive upper bound); i == len(bounds)
	// overflows into +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// WriteText renders the registry in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, m := range f.metrics {
			if m.hist != nil {
				writeHistogram(&b, f.name, m)
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(m.labels), m.fn())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative le buckets, +Inf,
// _sum, _count. Buckets are read low-to-high with the total read first, so a
// concurrent Observe can only make the rendered +Inf bucket conservative —
// cumulative counts stay nondecreasing, which is what Lint checks.
func writeHistogram(b *strings.Builder, name string, m *metric) {
	h := m.hist
	total := h.count.Load()
	sum := math.Float64frombits(h.sum.Load())
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if cum > total {
			cum = total
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			renderLabels(append(append([]Label(nil), m.labels...), Label{"le", formatFloat(bound)})), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		renderLabels(append(append([]Label(nil), m.labels...), Label{"le", "+Inf"})), total)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(m.labels), formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(m.labels), total)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders a label set as {a="x",b="y"}, empty string when none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
