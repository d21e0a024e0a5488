package core

import (
	"fmt"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the trace-replay oracle: every counterexample or witness a
// query returns — inline, and with the lookahead helper firing
// successors — is re-fired through the successor engine, asserting that each
// step is an enabled transition of its predecessor and that the path ends in
// the state the query stopped on; and the two runs must return the same
// trace. Run together with the rest of the core package under -race (CI
// does), these tests exercise the parent-log stitching while the helper
// reads the store.

func sameLabel(a, b Label) bool {
	if a.Kind != b.Kind || a.Chan != b.Chan || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	return true
}

func sameState(a, b *State) bool {
	if len(a.Locs) != len(b.Locs) || len(a.Vars) != len(b.Vars) {
		return false
	}
	for i := range a.Locs {
		if a.Locs[i] != b.Locs[i] {
			return false
		}
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	return a.Zone.Eq(b.Zone)
}

// assertTraceValid re-fires the trace through the successor engine: step 0
// must equal the initial symbolic state, and every later step must be one of
// the enabled successors of its predecessor with the recorded label and the
// exact same symbolic state (discrete part and zone). Trace states are stored
// states, so the oracle extrapolates what the engine fires — every successor,
// not only the one replay selects — before it compares.
func assertTraceValid(t *testing.T, c *Checker, trace []TraceStep) {
	t.Helper()
	replayTrace(t, c, trace, func(ctx *succCtx, s *State) ([]succ, error) {
		return c.eng.successors(ctx, s, nil)
	})
}

// replayTrace is assertTraceValid with the enumerator that proposes each
// step's candidates as a parameter.
func replayTrace(t testing.TB, c *Checker, trace []TraceStep, next func(*succCtx, *State) ([]succ, error)) {
	t.Helper()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	ctx := c.eng.newCtx(nil)
	init, err := c.eng.initial(&ctx.closeScratch)
	if err != nil {
		t.Fatal(err)
	}
	init.Zone.Extrapolate(&c.eng.bounds, ctx.rows, ctx.cols)
	if !sameState(trace[0].State, init) {
		t.Fatalf("trace step 0 is not the initial state: %s", trace[0].State.Format(c.net))
	}
	cur := init
	for i, step := range trace[1:] {
		succs, err := next(ctx, cur)
		if err != nil {
			t.Fatal(err)
		}
		var match *State
		for _, sc := range succs {
			sc.state.Zone.Extrapolate(&c.eng.bounds, ctx.rows, ctx.cols)
			if sameLabel(sc.label, step.Label) && sameState(sc.state, step.State) {
				match = sc.state
				break
			}
		}
		if match == nil {
			t.Fatalf("trace step %d (%s -> %s) is not an enabled successor",
				i+1, step.Label.Format(c.net), step.State.Format(c.net))
		}
		cur = match
	}
}

// assertDeadlocked verifies the trace's final state has no action successor.
func assertDeadlocked(t *testing.T, c *Checker, trace []TraceStep) {
	t.Helper()
	last := trace[len(trace)-1].State
	succs, err := c.eng.successors(c.eng.newCtx(nil), last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(succs) != 0 {
		t.Errorf("deadlock witness ends in a state with %d successors", len(succs))
	}
}

// TestSafetyCounterexampleReplaysBothEngines runs the same violated safety
// property inline and with the helper on: both verdicts must
// agree, both counterexamples must replay, and they must be one trace.
func TestSafetyCounterexampleReplaysBothEngines(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	// AG(rec < 2) is violated exactly when rec >= 2 is reachable.
	violates := func(s *State) bool { return s.Vars[0] >= 2 }
	verdicts := map[string]bool{}
	var traces [][]TraceStep
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"lookahead", Options{lookahead: lookaheadOn}},
	} {
		q := NewReachQuery(violates)
		if _, err := c.RunQueries(tc.opts, q); err != nil {
			t.Fatal(err)
		}
		verdicts[tc.name] = !q.Found
		traces = append(traces, q.Trace)
		if !q.Found {
			continue
		}
		if len(q.Trace) == 0 {
			t.Fatalf("%s: violated property must carry a counterexample", tc.name)
		}
		assertTraceValid(t, c, q.Trace)
		last := q.Trace[len(q.Trace)-1].State
		if !violates(last) {
			t.Errorf("%s: counterexample does not end in a violating state", tc.name)
		}
	}
	if verdicts["sequential"] != verdicts["lookahead"] {
		t.Errorf("verdicts disagree: sequential=%v lookahead=%v",
			verdicts["sequential"], verdicts["lookahead"])
	}
	sameTrace(t, "lookahead counterexample", traces[1], traces[0])
	if verdicts["sequential"] {
		t.Error("rec reaches 2 in the grid; property must be violated")
	}
}

// TestReachableWitnessReplaysBothEngines compares a ReachQuery inline and at
// with the helper on, replays both witnesses and requires them to
// be one trace.
func TestReachableWitnessReplaysBothEngines(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	var traces [][]TraceStep
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"lookahead", Options{lookahead: lookaheadOn}},
	} {
		q := NewReachQuery(atBusy)
		if _, err := c.RunQueries(tc.opts, q); err != nil {
			t.Fatal(err)
		}
		if !q.Found {
			t.Fatalf("%s: busy must be reachable", tc.name)
		}
		if len(q.Trace) == 0 {
			t.Fatalf("%s: witness must be non-nil", tc.name)
		}
		assertTraceValid(t, c, q.Trace)
		if !atBusy(q.Trace[len(q.Trace)-1].State) {
			t.Errorf("%s: witness does not end in a busy state", tc.name)
		}
		traces = append(traces, q.Trace)
	}
	sameTrace(t, "lookahead witness", traces[1], traces[0])
}

// TestSupClockUnboundedWitnessReplaysBothEngines drives the one SupClockQuery
// case that stops with a witness — an extrapolated-to-infinity clock —
// inline and with the helper on; the witnesses must be one
// trace. The grid's y clock is never reset, so its supremum at any
// busy state lies beyond the horizon.
func TestSupClockUnboundedWitnessReplaysBothEngines(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	y, ok := n.ClockByName("y")
	if !ok {
		t.Fatal("no clock y")
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	var traces [][]TraceStep
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"lookahead", Options{lookahead: lookaheadOn}},
	} {
		q := NewSupClockQuery(y.ID, atBusy)
		if _, err := c.RunQueries(tc.opts, q); err != nil {
			t.Fatal(err)
		}
		sup := q.Result
		if !sup.Unbounded || !sup.Seen {
			t.Fatalf("%s: y at busy must be beyond the horizon (unbounded=%v seen=%v)",
				tc.name, sup.Unbounded, sup.Seen)
		}
		if len(sup.Witness) == 0 {
			t.Fatalf("%s: unbounded supremum must carry a witness trace", tc.name)
		}
		assertTraceValid(t, c, sup.Witness)
		last := sup.Witness[len(sup.Witness)-1]
		if !atBusy(last.State) || last.State.Zone.Sup(int(y.ID)) != dbm.Infinity {
			t.Errorf("%s: witness does not end in an unbounded busy state", tc.name)
		}
		traces = append(traces, sup.Witness)
	}
	sameTrace(t, "lookahead witness", traces[1], traces[0])
}

// TestDeadlockWitnessReplaysBothEngines compares a DeadlockQuery inline and
// with the helper on, on a deadlocking model, replays both
// witnesses and requires them to be one trace.
func TestDeadlockWitnessReplaysBothEngines(t *testing.T) {
	n := ta.NewNetwork("dead")
	x := n.AddClock("x")
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 3))
	l1 := p.AddLocation("stuck", ta.Normal)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: ta.CEq(x, 3)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]TraceStep
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"lookahead", Options{lookahead: lookaheadOn}},
	} {
		q := NewDeadlockQuery()
		if _, err := c.RunQueries(tc.opts, q); err != nil {
			t.Fatal(err)
		}
		res := q.Result
		if res.Free {
			t.Fatalf("%s: absorbing location must be reported as a deadlock", tc.name)
		}
		if len(res.Witness) == 0 {
			t.Fatalf("%s: deadlock verdict must carry a witness", tc.name)
		}
		assertTraceValid(t, c, res.Witness)
		assertDeadlocked(t, c, res.Witness)
		traces = append(traces, res.Witness)
	}
	sameTrace(t, "lookahead witness", traces[1], traces[0])
}

// TestParallelTraceStressReplays hammers the trace machinery with the
// lookahead helper on: many rounds, every returned trace replayed and equal
// to the inline run's. Together with -race this
// exercises parent-log appends beside the helper's reads.
func TestParallelTraceStressReplays(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	// A deep target: the server has been busy and all generators have
	// re-armed at least once.
	deep := func(s *State) bool { return s.Locs[3] == busy && s.Vars[0] >= 2 }
	inline := NewReachQuery(deep)
	if _, err := c.RunQueries(Options{lookahead: lookaheadOff}, inline); err != nil {
		t.Fatal(err)
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		q := NewReachQuery(deep)
		if _, err := c.RunQueries(Options{Seed: int64(r), lookahead: lookaheadOn}, q); err != nil {
			t.Fatal(err)
		}
		sameTrace(t, fmt.Sprintf("round %d", r), q.Trace, inline.Trace)
		if !q.Found || len(q.Trace) == 0 {
			t.Fatalf("round %d: deep state must be reachable with a trace", r)
		}
		assertTraceValid(t, c, q.Trace)
		if !deep(q.Trace[len(q.Trace)-1].State) {
			t.Errorf("round %d: trace does not end in the target", r)
		}
	}
}
