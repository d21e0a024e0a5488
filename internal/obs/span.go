package obs

import (
	"sync"
	"time"
)

// Span is one named wall-clock interval of a profile: a sweep phase (parse,
// compile, explore, trace-replay) or a job stage (queue-wait, admission-wait,
// compute, replicate). Times are absolute Unix nanoseconds so spans recorded
// by different layers of one job order correctly; every span of a process is
// placed on the monotonic clock relative to one epoch (see NewSpan).
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// End returns the span's end in Unix nanoseconds.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// epoch anchors the process's spans: its wall-clock reading is taken once and
// every span start is that reading plus the monotonic time since.
var epoch = time.Now()

// NewSpan builds a span from an interval. Start and duration both come from
// the monotonic clock, so two spans that share an endpoint abut exactly —
// prev.End() == next.StartNS — whatever the wall clock did in between;
// reading the start from the wall clock and the duration from the monotonic
// one let them overlap by the drift between the two.
func NewSpan(name string, start, end time.Time) Span {
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	return Span{Name: name, StartNS: epoch.UnixNano() + start.Sub(epoch).Nanoseconds(), DurNS: d.Nanoseconds()}
}

// SpanList is a concurrency-safe ordered span recorder. Recording locks a
// mutex — phase boundaries are rare events, never per-state work.
type SpanList struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span now and returns the closer that records it.
func (l *SpanList) Begin(name string) func() {
	start := time.Now()
	return func() { l.Record(name, start, time.Now()) }
}

// Record appends a completed span.
func (l *SpanList) Record(name string, start, end time.Time) {
	l.Append(NewSpan(name, start, end))
}

// Append appends an already-built span.
func (l *SpanList) Append(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Snapshot copies the recorded spans in recording order.
func (l *SpanList) Snapshot() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}
