package arch

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/core"
)

// This file is the arch-level batch-vs-sequential oracle: Analyze of a set
// compiled for many requirements (one compilation, one exploration) must
// reproduce the verdicts, suprema, and attainment flags of each requirement
// compiled alone bit-for-bit, on the stress networks that exercise every scheduler
// template. The icrns case-study half of the oracle lives in
// internal/icrns/batch_test.go.

// assertBatchMatchesSingles analyzes reqs compiled together and each
// requirement compiled alone with the same options, comparing every verdict
// and logging every sweep's state counts (R6, observer independence), and
// asserts the batch performed exactly one exploration (every
// per-requirement Stats equal the shared sweep's) and that each batch result
// carries a witness from it (assertWitnessEnds).
func assertBatchMatchesSingles(t *testing.T, sys *System, reqs []*Requirement,
	copts Options, opts core.Options) *AllResult {
	t.Helper()
	cs, err := CompileAll(sys, reqs, copts)
	if err != nil {
		t.Fatalf("CompileAll: %v", err)
	}
	all, err := cs.AnalyzeTraced(opts)
	if err != nil {
		t.Fatalf("AnalyzeTraced: %v", err)
	}
	if len(all.Results) != len(reqs) {
		t.Fatalf("Analyze returned %d results for %d requirements", len(all.Results), len(reqs))
	}
	t.Logf("batch: %s", all.Stats)
	for i, req := range reqs {
		single := mustWCRT(t, sys, req, copts, opts)
		t.Logf("%s alone: %s", req.Name, single.Stats)
		got := all.Results[i]
		if got.Req != req {
			t.Errorf("result %d is for %v, want %s", i, got.Req, req.Name)
		}
		if got.MS.Cmp(single.MS) != 0 {
			t.Errorf("%s: batch WCRT %s != single %s", req.Name, got.MS.RatString(), single.MS.RatString())
		}
		if got.Attained != single.Attained || got.Exact != single.Exact ||
			got.BeyondHorizon != single.BeyondHorizon {
			t.Errorf("%s: batch flags (att=%v exact=%v beyond=%v) != single (att=%v exact=%v beyond=%v)",
				req.Name, got.Attained, got.Exact, got.BeyondHorizon,
				single.Attained, single.Exact, single.BeyondHorizon)
		}
		// Exactly one exploration: each result carries the one shared sweep.
		if got.Stats != all.Stats {
			t.Errorf("%s: result stats %+v differ from the shared sweep %+v — more than one exploration?",
				req.Name, got.Stats, all.Stats)
		}
		assertWitnessEnds(t, cs, i, got)
	}
	return all
}

// TestAnalyzeAllContended covers the Fig. 4/5 processor templates: both
// scenarios of the contended system measured at once, non-preemptive and
// preemptive.
func TestAnalyzeAllContended(t *testing.T) {
	for _, sched := range []SchedKind{SchedFP, SchedFPPreempt, SchedNondet} {
		sys, hi, lo := contended(sched)
		reqs := []*Requirement{EndToEnd("hi", hi), EndToEnd("lo", lo)}
		assertBatchMatchesSingles(t, sys, reqs, Options{HorizonMS: 100}, core.Options{})
	}
}

// TestAnalyzeAllSpanObservers covers requirements that share signals: the
// end of one span is the start of the next, so the shared done-channel is
// heard by two observers of the same scenario plus the end-to-end one.
func TestAnalyzeAllSpanObservers(t *testing.T) {
	sys, e2e := pipeline(Sporadic(MS(100, 1)))
	sc := sys.Scenarios[0]
	reqs := []*Requirement{
		e2e,
		Span("front", sc, -1, 1),
		Span("back", sc, 1, 2),
	}
	all := assertBatchMatchesSingles(t, sys, reqs, Options{HorizonMS: 100}, core.Options{})
	// Sanity anchor: the uncontended pipeline is 10+10+10 ms end to end.
	if all.Results[0].MS.Cmp(new(big.Rat).SetInt64(30)) != 0 {
		t.Errorf("pipeline end-to-end = %s ms, want 30", all.Results[0].MS.RatString())
	}
}

// TestAnalyzeAllTDMA covers the TDMA bus template.
func TestAnalyzeAllTDMA(t *testing.T) {
	sys, req := tdmaSystem(t)
	sc := sys.Scenarios[0]
	reqs := []*Requirement{req, Span("xfer", sc, -1, 0)}
	_ = reqs[1] // same span as req; exercises duplicate signals via distinct names
	assertBatchMatchesSingles(t, sys, reqs, Options{HorizonMS: 200}, core.Options{})
}

// TestAnalyzeAllChain covers the benchmark's 10-scenario chain: periodic
// scenarios with known offsets on one nondeterministic processor, one
// end-to-end requirement each, with a 120 ms horizon.
func TestAnalyzeAllChain(t *testing.T) {
	sys := NewSystem("chain")
	cpu := sys.AddProcessor("CPU", 10, SchedNondet)
	reqs := make([]*Requirement, 10)
	for i := range reqs {
		sc := sys.AddScenario(fmt.Sprintf("s%d", i), i+1, Periodic(MS(int64(40+40*(i%2)), 1), MS(int64(3*i), 1)))
		sc.Compute(fmt.Sprintf("op%d", i), cpu, 45000)
		reqs[i] = EndToEnd(fmt.Sprintf("r%d", i), sc)
	}
	assertBatchMatchesSingles(t, sys, reqs, Options{HorizonMS: 120}, core.Options{})
}

// TestAnalyzeAllPerRequirementHorizons pins HorizonMSFor: each observer in
// the shared network gets its own extrapolation horizon, and every verdict
// matches the single compilation run with the matching HorizonMS.
func TestAnalyzeAllPerRequirementHorizons(t *testing.T) {
	sys, hi, lo := contended(SchedFP)
	reqs := []*Requirement{EndToEnd("hi", hi), EndToEnd("lo", lo)}
	perReq := map[string]int64{"hi": 100, "lo": 25}
	copts := Options{
		HorizonMS:    100,
		HorizonMSFor: func(r *Requirement) int64 { return perReq[r.Name] },
	}
	cs, err := CompileAll(sys, reqs, copts)
	if err != nil {
		t.Fatal(err)
	}
	// The horizons must actually differ inside the compiled set.
	if cs.Horizons[0] == cs.Horizons[1] {
		t.Errorf("per-requirement horizons not applied: %v", cs.Horizons)
	}
	all, err := cs.AnalyzeTraced(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		assertWitnessEnds(t, cs, i, all.Results[i])
		single := mustWCRT(t, sys, req, Options{HorizonMS: perReq[req.Name]}, core.Options{})
		got := all.Results[i]
		if got.MS.Cmp(single.MS) != 0 || got.Attained != single.Attained ||
			got.Exact != single.Exact || got.BeyondHorizon != single.BeyondHorizon {
			t.Errorf("%s: batch %s (att=%v exact=%v beyond=%v) != single %s with horizon %d",
				req.Name, got.MS.RatString(), got.Attained, got.Exact, got.BeyondHorizon,
				single.MS.RatString(), perReq[req.Name])
		}
	}
}

// TestAnalyzeAllValidation covers the batch-specific error paths.
func TestAnalyzeAllValidation(t *testing.T) {
	sys, hi, _ := contended(SchedFP)
	if _, err := CompileAll(sys, nil, Options{}); err == nil {
		t.Error("empty requirement set must fail")
	}
	r1, r2 := EndToEnd("same", hi), EndToEnd("same", hi)
	if _, err := CompileAll(sys, []*Requirement{r1, r2}, Options{}); err == nil {
		t.Error("duplicate requirement names must fail")
	}
	if _, err := CompileAll(sys, []*Requirement{nil}, Options{}); err == nil {
		t.Error("nil requirement must fail")
	}
}

// TestDeadlineVerdictHelpers pins ViolatesDeadline (and "proven met",
// Exact && !ViolatesDeadline) against VerifyDeadline, the model-checking
// formulation of the same property.
func TestDeadlineVerdictHelpers(t *testing.T) {
	sys, hi, _ := contended(SchedFP)
	req := EndToEnd("hi", hi)
	res := mustWCRT(t, sys, req, Options{HorizonMS: 100}, core.Options{})
	// WCRT(hi) = 15 ms, attained.
	for _, tc := range []struct {
		deadline int64
		meets    bool
	}{
		{10, false}, {15, false}, {16, true}, {100, true},
	} {
		d := new(big.Rat).SetInt64(tc.deadline)
		if got := res.Exact && !res.ViolatesDeadline(d); got != tc.meets {
			t.Errorf("met(%d) = %v, want %v (WCRT %s attained=%v)",
				tc.deadline, got, tc.meets, res.MS.RatString(), res.Attained)
		}
		ok, _, err := VerifyDeadline(sys, req, d, Options{HorizonMS: 100}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.meets {
			t.Errorf("VerifyDeadline(%d) = %v disagrees with the measured verdict %v", tc.deadline, ok, tc.meets)
		}
		if res.ViolatesDeadline(d) == tc.meets {
			t.Errorf("ViolatesDeadline(%d) must be the negation on an exact result", tc.deadline)
		}
	}
}
