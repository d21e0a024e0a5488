package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// buildGrid constructs a system with a decently sized zone graph: three
// periodic generators with co-prime periods feeding one server.
func buildGrid(t *testing.T) (*ta.Network, ta.Clock, *ta.Process, ta.LocID) {
	t.Helper()
	n := ta.NewNetwork("grid")
	sx := n.AddClock("sx")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 500)
	rec := n.AddVar("rec", 0, 0, 12)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)
	for i, period := range []int64{7, 11, 13} {
		gx := n.AddClock("gx" + string(rune('0'+i)))
		gen := n.AddProcess("GEN" + string(rune('0'+i)))
		g0 := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, period))
		gen.AddEdge(ta.Edge{Src: g0, Dst: g0, ClockGuard: ta.CEq(gx, period),
			Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}, Update: ta.Inc(rec, 1)})
	}
	srv := n.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 2))
	srv.AddEdge(ta.Edge{Src: idle, Dst: busy,
		Guard:  ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}},
		Update: ta.Inc(rec, -1)})
	srv.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(sx, 2)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n, sx, srv, busy
}

// The tests in this file pin that Options.Workers selects nothing: a run at
// any worker count, with the lookahead helper idle, engaged by the auto
// rule or forced on, is the run Workers: 1 makes — the same Stats, the same
// verdicts and the same witnesses. equality_test.go runs the full table.

// TestParallelMatchesSequentialStateCount: a plain sweep stores, pops and
// fires exactly as many states at Workers 4 as at Workers 1.
func TestParallelMatchesSequentialStateCount(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.Explore(Options{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(par.Stats, seq.Stats) {
		t.Errorf("Workers: 4 stats %v, Workers: 1 %v", par.Stats, seq.Stats)
	}
}

// TestParallelSupMatchesSequential: the supremum and its Stats are the same
// at Workers 4.
func TestParallelSupMatchesSequential(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	cond := func(s *State) bool { return s.Locs[3] == busy }
	seqQ := NewSupClockQuery(sx.ID, cond)
	if _, err := c.RunQueries(Options{}, seqQ); err != nil {
		t.Fatal(err)
	}
	seq := seqQ.Result
	parQ := NewSupClockQuery(sx.ID, cond)
	if _, err := c.RunQueries(Options{Workers: 4}, parQ); err != nil {
		t.Fatal(err)
	}
	par := parQ.Result
	if seq.Max != par.Max || seq.Unbounded != par.Unbounded || seq.Seen != par.Seen || !sameStats(seq.Stats, par.Stats) {
		t.Errorf("Workers: 4 sup %v (unbounded=%v) %v != Workers: 1 %v (unbounded=%v) %v",
			par.Max, par.Unbounded, par.Stats, seq.Max, seq.Unbounded, seq.Stats)
	}
	if seq.Max != dbm.LE(2) {
		t.Errorf("server busy clock sup = %v, want <=2", seq.Max)
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	n := ta.NewNetwork("overflow")
	v := n.AddVar("v", 0, 0, 2)
	x := n.AddClock("x")
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 1))
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 1),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(v, 1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	for _, m := range lookaheadModes {
		if _, err := c.Explore(Options{Workers: 4, lookahead: m}, nil); err == nil {
			t.Errorf("lookahead mode %d: variable overflow must fail the run", m)
		}
	}
}

// TestParallelVisitorStops: a visitor stop at Workers 4 finds the state and
// the trace Workers 1 finds.
func TestParallelVisitorStops(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, _ := NewChecker(n)
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	seq, err := c.Explore(Options{}, atBusy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(Options{Workers: 4}, atBusy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundState == nil || !sameState(res.FoundState, seq.FoundState) {
		t.Fatal("a Workers: 4 visitor stop must record the state Workers: 1 stops at")
	}
	if len(res.Trace) == 0 {
		t.Fatal("a Workers: 4 visitor stop must reconstruct a trace")
	}
	sameTrace(t, "Workers: 4 visitor trace", res.Trace, seq.Trace)
	assertTraceValid(t, c, res.Trace)
}

// TestParallelMaxStatesTruncates: Workers 4 truncates where Workers 1 does.
func TestParallelMaxStatesTruncates(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, _ := NewChecker(n)
	seq, err := c.Explore(Options{MaxStates: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(Options{MaxStates: 50, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !sameStats(res.Stats, seq.Stats) {
		t.Errorf("Workers: 4 truncated run %v, Workers: 1 %v", res.Stats, seq.Stats)
	}
}

// TestExploreParallelStressMatchesSequential runs the grid again and again
// at several worker counts and seeds with the lookahead helper forced on,
// and requires every run to equal the inline Workers: 1 run. Run with -race
// to exercise the helper's ring.
func TestExploreParallelStressMatchesSequential(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.Explore(Options{lookahead: lookaheadOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqSupQ := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(Options{lookahead: lookaheadOff}, seqSupQ); err != nil {
		t.Fatal(err)
	}
	seqSup := seqSupQ.Result
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, workers := range []int{2, 4, 8} {
			opts := Options{Seed: int64(r), Workers: workers, lookahead: lookaheadOn}
			par, err := c.Explore(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(par.Stats, seq.Stats) {
				t.Errorf("round %d workers %d: stats %v, inline %v", r, workers, par.Stats, seq.Stats)
			}
			supQ := NewSupClockQuery(sx.ID, atBusy)
			if _, err := c.RunQueries(opts, supQ); err != nil {
				t.Fatal(err)
			}
			sup := supQ.Result
			if sup.Max != seqSup.Max || sup.Seen != seqSup.Seen || sup.Unbounded != seqSup.Unbounded ||
				!sameStats(sup.Stats, seqSup.Stats) {
				t.Errorf("round %d workers %d: sup %v/%v/%v %v != inline %v/%v/%v %v",
					r, workers, sup.Max, sup.Seen, sup.Unbounded, sup.Stats,
					seqSup.Max, seqSup.Seen, seqSup.Unbounded, seqSup.Stats)
			}
		}
	}
}
