package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the batch-vs-sequential oracle of the query-set engine: a
// query set attached to ONE sweep must produce exactly the answers the
// same queries produce one per exploration (run under -race by CI).

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

// TestQuerySetMatchesDedicatedMethods attaches one query of every kind to a
// single RunQueries sweep and compares each answer against the same query
// run alone, one exploration each.
func TestQuerySetMatchesDedicatedMethods(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	y, ok := n.ClockByName("y")
	if !ok {
		t.Fatal("no clock y")
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }

	// Oracles: one exploration each.
	oReach := NewReachQuery(atBusy)
	if _, err := c.RunQueries(Options{}, oReach); err != nil {
		t.Fatal(err)
	}
	oSupQ := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(Options{}, oSupQ); err != nil {
		t.Fatal(err)
	}
	oSup := oSupQ.Result
	oSupYQ := NewSupClockQuery(y.ID, atBusy)
	if _, err := c.RunQueries(Options{}, oSupYQ); err != nil {
		t.Fatal(err)
	}
	oSupY := oSupYQ.Result
	oDeadQ := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{}, oDeadQ); err != nil {
		t.Fatal(err)
	}
	oDead := oDeadQ.Result
	if !oSupY.Unbounded {
		t.Fatal("grid's y clock must be beyond the horizon (the early-completion case)")
	}

	if oSup.Max != dbm.LE(2) {
		t.Errorf("server busy clock sup = %v, want <=2", oSup.Max)
	}
	if oSup.Witness != nil {
		t.Error("a bounded sup that asked for no witness must carry none")
	}

	reach := NewReachQuery(atBusy)
	sup := NewSupClockQuery(sx.ID, atBusy)
	sup.Witness = true
	supY := NewSupClockQuery(y.ID, atBusy) // completes early (unbounded)
	dead := NewDeadlockQuery()
	stats, err := c.RunQueries(Options{}, reach, sup, supY, dead)
	if err != nil {
		t.Fatal(err)
	}

	if reach.Found != oReach.Found {
		t.Errorf("batch reach = %v, oracle %v", reach.Found, oReach.Found)
	}
	if len(reach.Trace) == 0 || len(oReach.Trace) == 0 {
		t.Fatal("reach query must carry a trace")
	}
	assertTraceValid(t, c, reach.Trace)
	if !atBusy(reach.Trace[len(reach.Trace)-1].State) {
		t.Error("batch reach trace does not end in the target")
	}
	if reach.FoundState == nil || !atBusy(reach.FoundState) {
		t.Error("batch reach FoundState must satisfy the predicate")
	}

	if sup.Result.Max != oSup.Max || sup.Result.Seen != oSup.Seen || sup.Result.Unbounded != oSup.Unbounded {
		t.Errorf("batch sup %v/%v/%v != oracle %v/%v/%v",
			sup.Result.Max, sup.Result.Seen, sup.Result.Unbounded,
			oSup.Max, oSup.Seen, oSup.Unbounded)
	}
	// The bounded witness comes from the same sweep: it ends in a condition
	// state whose clock bound is the supremum, strictness included.
	if len(sup.Result.Witness) == 0 {
		t.Fatal("a bounded sup asked for its witness must carry one")
	}
	assertTraceValid(t, c, sup.Result.Witness)
	if last := sup.Result.Witness[len(sup.Result.Witness)-1].State; !atBusy(last) || last.Zone.Sup(int(sx.ID)) != oSup.Max {
		t.Errorf("sup witness ends with the clock at %v, want a target state at %v", last.Zone.Sup(int(sx.ID)), oSup.Max)
	}
	if !supY.Result.Unbounded || !supY.Result.Seen {
		t.Error("batch sup(y) must be unbounded like the oracle")
	}
	if len(supY.Result.Witness) == 0 {
		t.Fatal("unbounded sup must carry a witness even when the sweep continues")
	}
	assertTraceValid(t, c, supY.Result.Witness)
	last := supY.Result.Witness[len(supY.Result.Witness)-1].State
	if !atBusy(last) || last.Zone.Sup(int(y.ID)) != dbm.Infinity {
		t.Error("sup witness does not end in an unbounded target state")
	}

	if dead.Result.Free != oDead.Free {
		t.Errorf("batch deadlock-free = %v, oracle %v", dead.Result.Free, oDead.Free)
	}

	// One sweep: every query's embedded Stats are the shared run's.
	for i, got := range []Stats{reach.Stats, sup.Result.Stats, supY.Result.Stats, dead.Result.Stats} {
		if got != stats {
			t.Errorf("query %d carries stats %+v, want the shared %+v", i, got, stats)
		}
	}
	// The bounded sup query never completes, so it pins the sweep to the
	// full reachable graph: the one shared sweep must have explored
	// exactly what the full-sweep oracle did.
	if !sameStats(stats, oSup.Stats) {
		t.Errorf("shared sweep %v, full graph %v", stats, oSup.Stats)
	}
}

// TestQuerySetShortCircuits asserts the live-count short-circuit: a set
// whose queries all complete early must stop the sweep well before the full
// zone graph is explored.
func TestQuerySetShortCircuits(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	anyRec := func(s *State) bool { return s.Vars[0] > 0 }
	q1, q2 := NewReachQuery(atBusy), NewReachQuery(anyRec)
	stats, err := c.RunQueries(Options{}, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !q1.Found || !q2.Found {
		t.Fatal("both targets are reachable")
	}
	if stats.Stored >= full.Stored {
		t.Errorf("fully-completed query set explored %d states, full graph is %d — no short-circuit",
			stats.Stored, full.Stored)
	}
}

// TestQuerySetPartialCompletionKeepsSweepAlive pins the other half of the
// contract: one completed query must NOT stop a sweep that other queries
// still need — the reach query completes almost immediately, the bounded
// supremum query still sees the whole graph.
func TestQuerySetPartialCompletionKeepsSweepAlive(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	q := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	oSup := q.Result
	if oSup.Unbounded {
		t.Fatal("grid's sx clock must stay within the horizon (a whole-sweep query)")
	}
	reach := NewReachQuery(atBusy)
	sup := NewSupClockQuery(sx.ID, atBusy)
	stats, err := c.RunQueries(Options{}, reach, sup)
	if err != nil {
		t.Fatal(err)
	}
	if !reach.Found {
		t.Fatal("busy must be reachable")
	}
	if sup.Result.Max != oSup.Max || sup.Result.Seen != oSup.Seen {
		t.Errorf("sup over the shared sweep %v/%v != full-graph oracle %v/%v",
			sup.Result.Max, sup.Result.Seen, oSup.Max, oSup.Seen)
	}
	if stats.Stored < oSup.Stored {
		t.Errorf("sweep stopped early at %d states although a query needed all %d", stats.Stored, oSup.Stored)
	}
}

// TestQueriesAreSingleUse asserts the reuse guard.
func TestQueriesAreSingleUse(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	q := NewReachQuery(func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunQueries(Options{}, q); err == nil {
		t.Error("reusing a query must fail")
	}
	if _, err := c.RunQueries(Options{}, nil); err == nil {
		t.Error("a nil query must fail")
	}
}
