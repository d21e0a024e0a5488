package core

import (
	"testing"

	"repro/internal/dbm"
)

// This file is the batch-vs-sequential oracle of the query-set engine: a
// query set attached to ONE sweep must produce exactly the answers the
// dedicated one-query-per-exploration methods produce, sequentially and on
// the work-stealing frontier (run under -race by CI).

// TestQuerySetMatchesDedicatedMethods attaches one query of every kind to a
// single RunQueries sweep and compares each answer against its dedicated
// method run in isolation.
func TestQuerySetMatchesDedicatedMethods(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := FindClock(n, "y")
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }

	// Oracles: one exploration each, the historical shape.
	oReach, oTrace, _, err := c.Reachable(atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oSup, err := c.SupClock(sx.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oSupY, err := c.SupClock(y.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oDead, err := c.CheckDeadlockFree(Options{})
	if err != nil {
		t.Fatal(err)
	}
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

		if reach.Found != oReach {
			t.Errorf("workers %d: batch reach = %v, oracle %v", workers, reach.Found, oReach)
		}
		if len(reach.Trace) == 0 || len(oTrace) == 0 {
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
		// full reachable graph: the one shared sweep must have explored at
		// least as much as the full-sweep oracle (racy double-admission may
		// add a few).
		if stats.Stored < oSup.Stored {
			t.Errorf("workers %d: shared sweep stored %d < full graph %d", workers, stats.Stored, oSup.Stored)
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
	oSup, err := c.SupClock(sx.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
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

// TestBinarySearchWCRTSingleSweep asserts the rebuilt Property 1 procedure:
// one exploration total (no re-exploration per bisection threshold), with
// the minimal C implied by the supremum it would previously re-verify.
func TestBinarySearchWCRTSingleSweep(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	cond := func(s *State) bool { return s.Locs[3] == busy }
	sup, err := c.SupClock(sx.ID, cond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := c.BinarySearchWCRT(sx.ID, cond, 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Iterations != 1 {
		t.Errorf("binary search ran %d explorations, want exactly 1", bs.Iterations)
	}
	if bs.TotalStats.Stored != sup.Stored || bs.TotalStats.Popped != sup.Popped {
		t.Errorf("binary search effort %+v != one supremum sweep %+v", bs.TotalStats, sup.Stats)
	}
	// sup is (≤ 2): AG(cond → sx < C) first holds at C = 3.
	if !bs.Holds || bs.MinimalC != sup.Max.Value()+1 {
		t.Errorf("MinimalC = %d (holds=%v), want %d", bs.MinimalC, bs.Holds, sup.Max.Value()+1)
	}
	// The interval refutation case: hi at the supremum itself must fail.
	bs2, err := c.BinarySearchWCRT(sx.ID, cond, 0, sup.Max.Value(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bs2.Holds {
		t.Errorf("AG(cond → sx < %d) cannot hold when the supremum attains %d", sup.Max.Value(), sup.Max.Value())
	}
}

// TestBinarySearchWCRTTruncatedRefutes pins the budgeted behavior of the
// single-sweep rebuild: a truncated sweep whose partial supremum already
// reaches hi refutes definitively (the per-threshold procedure would have
// stopped at that same counterexample), while an inconclusive truncation
// stays an error.
func TestBinarySearchWCRTTruncatedRefutes(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	cond := func(s *State) bool { return s.Locs[3] == busy }
	// The first busy state appears within a handful of admissions and
	// attains sx = 2, so AG(cond → sx < 1) is refuted within the budget.
	bs, err := c.BinarySearchWCRT(sx.ID, cond, 0, 1, Options{MaxStates: 200})
	if err != nil {
		t.Fatalf("refutation within budget must not error: %v", err)
	}
	if bs.Holds {
		t.Error("AG(cond → sx < 1) must be refuted")
	}
	// A hi the partial supremum cannot reach stays inconclusive.
	if _, err := c.BinarySearchWCRT(sx.ID, cond, 0, 100, Options{MaxStates: 200}); err == nil {
		t.Error("inconclusive truncated search must error")
	}
}
