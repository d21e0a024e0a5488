package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, taken from the
// benchmark's own files: nothing under internal/ is instrumented.
type span struct {
	Name string `json:"name"`
	// StartNS and EndNS count from the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a unit's root.
	Parent int `json:"parent"`
	// Unit identifies the unit of work every span of one request shares.
	Unit int `json:"unit"`
}

// rootSpan names the span around one whole unit of work.
const rootSpan = "unit"

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the plain pass and the traced pass run the same call sites.
// It is used from the benchmark's driving goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	unit  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its closer.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.epoch)), Parent: parent, Unit: t.unit})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// record adds an already-measured interval under the innermost open span —
// for boundaries only a callback can see (the parse/finalize split).
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(start.Sub(t.epoch)),
		EndNS: int64(end.Sub(t.epoch)), Parent: parent, Unit: t.unit})
}

// nextUnit starts a new unit id for the spans that follow.
func (t *tracer) nextUnit() {
	if t != nil {
		t.unit++
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover. rootTotal is the summed
// duration of the root spans — the unit wall the layers must add up to.
func selfTimes(spans []span) (self map[string]time.Duration, rootTotal time.Duration) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self = map[string]time.Duration{}
	for i, s := range spans {
		d := s.EndNS - s.StartNS
		self[s.Name] += time.Duration(d - covered[i])
		if s.Parent < 0 {
			rootTotal += time.Duration(d)
		}
	}
	return self, rootTotal
}

// layerSumRatio is the share of the unit wall that lies inside some layer's
// span: Σ self times of the non-root spans ÷ Σ root durations.
func layerSumRatio(spans []span) float64 {
	self, rootTotal := selfTimes(spans)
	return ratio(float64(rootTotal-self[rootSpan]), float64(rootTotal))
}

// writeSpans writes the spans as JSON to dir/trace_<workload>.json.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "spans": spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
