package core

import (
	"testing"

	"repro/internal/dbm"
)

// This file is the batch-vs-sequential oracle of the query-set engine: a
// query set attached to ONE sweep must produce exactly the answers the
// same queries produce one per exploration, at any worker count (run under
// -race by CI).

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

	for _, workers := range []int{1, 4} {
		reach := NewReachQuery(atBusy)
		sup := NewSupClockQuery(sx.ID, atBusy)
		supY := NewSupClockQuery(y.ID, atBusy) // completes early (unbounded)
		dead := NewDeadlockQuery()
		stats, err := c.RunQueries(Options{Workers: workers}, reach, sup, supY, dead)
		if err != nil {
			t.Fatal(err)
		}

		if reach.Found != oReach.Found {
			t.Errorf("workers %d: batch reach = %v, oracle %v", workers, reach.Found, oReach.Found)
		}
		if len(reach.Trace) == 0 || len(oReach.Trace) == 0 {
			t.Fatalf("workers %d: reach query must carry a trace", workers)
		}
		assertTraceValid(t, c, reach.Trace)
		if !atBusy(reach.Trace[len(reach.Trace)-1].State) {
			t.Errorf("workers %d: batch reach trace does not end in the target", workers)
		}
		if reach.FoundState == nil || !atBusy(reach.FoundState) {
			t.Errorf("workers %d: batch reach FoundState must satisfy the predicate", workers)
		}

		if sup.Result.Max != oSup.Max || sup.Result.Seen != oSup.Seen || sup.Result.Unbounded != oSup.Unbounded {
			t.Errorf("workers %d: batch sup %v/%v/%v != oracle %v/%v/%v", workers,
				sup.Result.Max, sup.Result.Seen, sup.Result.Unbounded,
				oSup.Max, oSup.Seen, oSup.Unbounded)
		}
		if !supY.Result.Unbounded || !supY.Result.Seen {
			t.Errorf("workers %d: batch sup(y) must be unbounded like the oracle", workers)
		}
		if len(supY.Result.Witness) == 0 {
			t.Fatalf("workers %d: unbounded sup must carry a witness even when the sweep continues", workers)
		}
		assertTraceValid(t, c, supY.Result.Witness)
		last := supY.Result.Witness[len(supY.Result.Witness)-1].State
		if !atBusy(last) || last.Zone.Sup(int(y.ID)) != dbm.Infinity {
			t.Errorf("workers %d: sup witness does not end in an unbounded target state", workers)
		}

		if dead.Result.Free != oDead.Free {
			t.Errorf("workers %d: batch deadlock-free = %v, oracle %v", workers, dead.Result.Free, oDead.Free)
		}

		// One sweep: every query's embedded Stats are the shared run's.
		for i, got := range []Stats{reach.Stats, sup.Result.Stats, supY.Result.Stats, dead.Result.Stats} {
			if got != stats {
				t.Errorf("workers %d: query %d carries stats %+v, want the shared %+v", workers, i, got, stats)
			}
		}
		// The bounded sup query never completes, so it pins the sweep to the
		// full reachable graph: the one shared sweep must have explored
		// exactly what the full-sweep oracle did.
		if !sameStats(stats, oSup.Stats) {
			t.Errorf("workers %d: shared sweep %v, full graph %v", workers, stats, oSup.Stats)
		}
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
