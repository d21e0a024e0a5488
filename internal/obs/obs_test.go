package obs

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation exactly
// at a bucket bound lands IN that bucket (inclusive upper limit), one just
// above it lands in the next, and values past the last bound overflow into
// +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("boundary_seconds", "boundary test", []float64{1, 5, 10})

	cases := []struct {
		v    float64
		want int // index into counts: 0..len(bounds)-1 buckets, len(bounds) = +Inf
	}{
		{0.5, 0},
		{1, 0}, // exactly at a bound: inclusive
		{1.0000001, 1},
		{5, 1},
		{10, 2},
		{10.5, 3}, // past the last bound: +Inf overflow
	}
	for _, c := range cases {
		before := make([]int64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.want {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket %d count = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatalf("Count() = %d, want %d", got, len(cases))
	}

	// The rendered cumulative buckets must reflect the same placement.
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`boundary_seconds_bucket{le="1"} 2`,
		`boundary_seconds_bucket{le="5"} 4`,
		`boundary_seconds_bucket{le="10"} 5`,
		`boundary_seconds_bucket{le="+Inf"} 6`,
		`boundary_seconds_count 6`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestWriteTextLintsCleanAndByteStable renders a registry with every metric
// kind, checks the output against the package's own validator, and pins that
// repeated scrapes of unchanged values are byte-identical — the property the
// /metrics alias test in serve relies on.
func TestWriteTextLintsCleanAndByteStable(t *testing.T) {
	r := NewRegistry()
	var events atomic.Int64
	r.CounterFunc("events_total", "events seen", events.Load)
	r.GaugeFunc("depth", "current depth", func() int64 { return -12 })
	r.CounterFunc("derived_total", "derived", func() int64 { return 7 })
	r.GaugeFunc("temp", "sampled", func() int64 { return -3 })
	h := r.Histogram("lat_seconds", `latency with "quotes" and \ slash`, []float64{0.1, 2.5},
		Label{Name: "op", Value: `a"b\c`})
	events.Add(42)
	h.Observe(0.05)
	h.Observe(3)

	var first strings.Builder
	if err := r.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(first.String())); len(errs) > 0 {
		t.Fatalf("WriteText output fails Lint: %v\n%s", errs, first.String())
	}
	var second strings.Builder
	if err := r.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("repeated scrape not byte-identical:\n--- first\n%s--- second\n%s",
			first.String(), second.String())
	}
	if !strings.Contains(first.String(), "events_total 42\n") {
		t.Errorf("counter value missing:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "temp -3\n") {
		t.Errorf("gauge func value missing:\n%s", first.String())
	}
}

// TestRegistryPanics pins the setup-time programmer-error contract.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	zero := func() int64 { return 0 }
	mustPanic("invalid name", func() { NewRegistry().CounterFunc("0bad", "", zero) })
	mustPanic("reserved le label", func() {
		NewRegistry().CounterFunc("x_total", "", zero, Label{Name: "le", Value: "1"})
	})
	mustPanic("kind mismatch", func() {
		r := NewRegistry()
		r.CounterFunc("x_total", "", zero)
		r.GaugeFunc("x_total", "", zero)
	})
	mustPanic("duplicate series", func() {
		r := NewRegistry()
		r.CounterFunc("x_total", "", zero)
		r.CounterFunc("x_total", "", zero)
	})
	mustPanic("non-ascending bounds", func() {
		NewRegistry().Histogram("h_seconds", "", []float64{1, 1})
	})
}

// TestSpansSharingAnEndpointAbut pins what a job's lifecycle spans rely on:
// when one span ends at the time.Time the next one starts at, the first one's
// End is the second one's StartNS to the nanosecond, and a start is never
// before the epoch-anchored wall reading of an earlier instant.
func TestSpansSharingAnEndpointAbut(t *testing.T) {
	prev := time.Now()
	for i := 0; i < 1000; i++ {
		mid := time.Now()
		end := time.Now()
		a, b := NewSpan("a", prev, mid), NewSpan("b", mid, end)
		if a.End() != b.StartNS {
			t.Fatalf("iteration %d: span a ends at %d, span b starts at %d", i, a.End(), b.StartNS)
		}
		if a.StartNS > b.StartNS || a.DurNS < 0 || b.DurNS < 0 {
			t.Fatalf("iteration %d: spans out of order: %+v %+v", i, a, b)
		}
		prev = end
	}
	if s := NewSpan("now", prev, prev); time.Duration(s.StartNS-time.Now().UnixNano()).Abs() > time.Minute {
		t.Errorf("span start %d is not an absolute Unix time", s.StartNS)
	}
}
