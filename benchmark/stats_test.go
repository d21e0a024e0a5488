package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSpread(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := percentile(vals, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 2}); !near(got, 3) {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Quartiles 2 and 4 around a median of 3.
	if got := spread(vals); !near(got, 2.0/3) {
		t.Errorf("spread = %v, want 2/3", got)
	}
}

// A set reports the median over its runs of each run's value; worsening is
// judged in the metric's own direction.
func TestMedianOfRunsAndWorsening(t *testing.T) {
	lower := metricDef{Name: "verdict_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "verdicts_per_s", Better: "higher", Bound: 0.1}
	a := median([]float64{100, 90, 110})
	if !near(worsening(lower, a, median([]float64{111, 112, 105})), 0.11) {
		t.Error("a slower set must read 11% worse")
	}
	if w := worsening(lower, a, 95); w >= 0 {
		t.Errorf("a faster set reads %v worse", w)
	}
	if !near(worsening(higher, 200, 150), 0.25) {
		t.Error("a lower rate must read 25% worse")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// unit [0,100] ⊃ parse [10,30], sweep [30,90] ⊃ replay [80,90].
	spans := []span{
		{Name: rootSpan, StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "parse", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "sweep", StartNS: 30, EndNS: 90, Parent: 0},
		{Name: "replay", StartNS: 80, EndNS: 90, Parent: 2},
		{Name: rootSpan, StartNS: 100, EndNS: 150, Parent: -1, Unit: 1},
		{Name: "parse", StartNS: 100, EndNS: 150, Parent: 4, Unit: 1},
	}
	self, root := selfTimes(spans)
	want := map[string]time.Duration{rootSpan: 20, "parse": 70, "sweep": 50, "replay": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	if root != 150 {
		t.Errorf("root total = %d, want 150", root)
	}
	if got := layerSumRatio(spans); !near(got, 130.0/150) {
		t.Errorf("layer sum ratio = %v, want 130/150", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.begin("x")() // a nil tracer records nothing and must not panic
	off.nextUnit()

	tr := newTracer()
	tr.nextUnit()
	endUnit := tr.begin(rootSpan)
	endA := tr.begin("a")
	now := time.Now()
	tr.record("a.inner", now, now.Add(time.Microsecond))
	endA()
	endB := tr.begin("b")
	endB()
	endUnit()
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.Unit != 1 || s.EndNS < s.StartNS {
			t.Errorf("span %+v: wrong unit or negative duration", s)
		}
	}
	if parents[rootSpan] != -1 || parents["a"] != 0 || parents["a.inner"] != 1 || parents["b"] != 0 {
		t.Errorf("parents = %v", parents)
	}
}
