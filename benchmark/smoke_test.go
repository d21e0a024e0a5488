package main

import (
	"errors"
	"os"
	"testing"
	"time"
)

// TestSmoke drives every workload through both passes at smoke size: inputs
// generated, program run, every verdict checked against its expected answer,
// every metric the result line promises present. It is what keeps the
// benchmark's own paths inside tier-1.
func TestSmoke(t *testing.T) {
	host, err := probeHost()
	if err != nil {
		t.Fatal(err)
	}
	if host.canaryMS <= 0 || host.nproc < 1 {
		t.Errorf("host probe: %+v", host)
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peak RSS = %v, %v", rss, err)
	}
	out := t.TempDir()
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			plain, err := measureWorkload(def, host, 1, 0.02, false, smokeSize, out)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.result.Correct || plain.result.Attempted < minUnits || plain.firstErr != nil {
				t.Fatalf("plain pass: %+v (%v)", plain.result, plain.firstErr)
			}
			for _, d := range endToEnd {
				if v, ok := plain.result.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive %s", d.Name, v, d.Unit)
				}
			}
			if len(plain.result.Metrics) != len(endToEnd) {
				t.Errorf("plain pass printed %d metrics, want %d", len(plain.result.Metrics), len(endToEnd))
			}

			traced, err := measureWorkload(def, host, 1, 0.02, true, smokeSize, out)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.result.Correct || traced.firstErr != nil {
				t.Fatalf("traced pass: %+v (%v)", traced.result, traced.firstErr)
			}
			if len(traced.result.Metrics) != len(perLayer) {
				t.Errorf("traced pass printed %d metrics, want %d", len(traced.result.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := traced.result.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if r := traced.result.Metrics["trace.layer_sum_ratio"].Value; r < 0.8 || r > 1.0001 {
				t.Errorf("layers cover %.3f of the unit wall", r)
			}
			if st, err := os.Stat(traced.spanFile); err != nil || st.Size() == 0 {
				t.Errorf("span file %q: %v", traced.spanFile, err)
			}
		})
	}
}

// flaky is a workload whose every third unit fails after the warm-up.
type flaky struct{}

func (flaky) open() (instance, error) { return flaky{}, nil }
func (flaky) unit(i int, _ *tracer) (unitResult, error) {
	if i%3 == 2 {
		return unitResult{}, errors.New("wrong verdict")
	}
	return unitResult{dur: time.Microsecond, verdicts: 1}, nil
}
func (flaky) layers(map[string]float64, *tracedPass) error { return nil }
func (flaky) close() error                                 { return nil }

// A failed unit must be counted and make the run incorrect; a wrong warm-up
// verdict must stop the run before it measures anything.
func TestWrongVerdictFails(t *testing.T) {
	r, err := measureWorkload(workloadDef{name: "flaky", new: func(int64, sizing) (workload, error) { return flaky{}, nil }},
		hostProbe{}, 1, 0.01, false, smokeSize, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.result.Correct || r.result.Failed == 0 || r.result.Failed >= r.result.Attempted || r.firstErr == nil {
		t.Errorf("flaky run: %+v (%v)", r.result, r.firstErr)
	}

	def := workloadDef{name: "fischer_wrong", new: func(int64, sizing) (workload, error) {
		// The model is unsafe (wait 1 < write bound 2); the expectation
		// below claims it is safe.
		return &fischerLoad{src: fischerTA("f", 2, 2, 1), writeBound: 2, waitConst: 2}, nil
	}}
	if _, err := measureWorkload(def, hostProbe{}, 1, 0.01, false, smokeSize, t.TempDir()); err == nil {
		t.Fatal("a wrong warm-up verdict must stop the run")
	}
}
