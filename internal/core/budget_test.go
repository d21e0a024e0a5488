package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dbm"
)

// TestStateBudgetMidSweep arms a hard state budget against the hopeless
// graph and requires ErrStateBudget with partial stats, inline and with the
// lookahead helper in flight.
func TestStateBudgetMidSweep(t *testing.T) {
	for _, m := range lookaheadModes {
		n := buildHuge(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore(Options{lookahead: m, StateBudget: 5000}, nil)
		if !errors.Is(err, ErrStateBudget) {
			t.Fatalf("lookahead=%d: err = %v, want ErrStateBudget", m, err)
		}
		// Partial stats: the budget trips at admission, one past the cap.
		if res.Stored != 5001 {
			t.Errorf("lookahead=%d: stored %d, want 5001", m, res.Stored)
		}
		if res.Popped == 0 {
			t.Errorf("lookahead=%d: partial stats missing popped count", m)
		}
		if res.Truncated {
			t.Errorf("lookahead=%d: hard budget must not report soft truncation", m)
		}
	}
}

// TestMemoryBudgetMidSweep bounds the hopeless sweep by zone bytes and
// requires a prompt ErrMemoryBudget with partial stats, inline and with the
// lookahead helper in flight.
func TestMemoryBudgetMidSweep(t *testing.T) {
	for _, m := range lookaheadModes {
		n := buildHuge(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := c.Explore(Options{lookahead: m, MaxBytes: 1 << 20}, nil)
		if !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("lookahead=%d: err = %v, want ErrMemoryBudget", m, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("lookahead=%d: budget abort took %v, not prompt", m, elapsed)
		}
		if res.Stored == 0 || res.Popped == 0 {
			t.Errorf("lookahead=%d: expected partial stats, got %+v", m, res.Stats)
		}
	}
}

// TestMaxStatesStaysSoft pins the budget/truncation split: MaxStates alone
// keeps its historical soft semantics — Truncated set, no error — which the
// icrns structured-testing fallback relies on. A truncated supremum is a
// lower bound that can already refute a deadline: the grid's first busy
// states, within the first 200 admissions, attain sx = 2.
func TestMaxStatesStaysSoft(t *testing.T) {
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(Options{MaxStates: 2000}, nil)
	if err != nil {
		t.Fatalf("MaxStates must truncate, not fail: %v", err)
	}
	if !res.Truncated {
		t.Error("MaxStates run did not report truncation")
	}

	g, sx, _, busy := buildGrid(t)
	if c, err = NewChecker(g); err != nil {
		t.Fatal(err)
	}
	q := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(Options{MaxStates: 200}, q); err != nil {
		t.Fatalf("MaxStates must truncate, not fail: %v", err)
	}
	if !q.Result.Truncated || q.Result.Max < dbm.LE(1) {
		t.Errorf("truncated sup = %v (truncated=%v), want a refutation of sx < 1 within 200 states",
			q.Result.Max, q.Result.Truncated)
	}
}

// TestBudgetLeavesEngineReusable is the budget twin of
// TestCancelLeavesEngineReusable: after a budget-failed sweep the same
// checker must produce a full sweep bit-identical to a fresh checker's, for
// both budget kinds.
func TestBudgetLeavesEngineReusable(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	budgets := []Options{
		{StateBudget: 20},
		{MaxBytes: 20 * dbm.ZoneBytes(n.NumClocks())},
	}
	for _, bopts := range budgets {
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Explore(bopts, nil)
		if !errors.Is(err, ErrStateBudget) && !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("budget %+v: err = %v, want a budget error", bopts, err)
		}

		after, err := c.Explore(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Explore(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after.Stored != want.Stored || after.Transitions != want.Transitions ||
			after.Popped != want.Popped || after.Deadlocks != want.Deadlocks {
			t.Errorf("budget %+v: post-budget sweep %+v differs from fresh checker %+v",
				bopts, after.Stats, want.Stats)
		}
	}
}

// TestBudgetedQueriesStayReusable mirrors TestAbortBeforeStart's concern for
// budgets: a query attached to a budget-failed run is consumed (it ran), but
// the checker itself keeps answering fresh queries exactly.
func TestBudgetedQueriesStayReusable(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(Options{StateBudget: 10}, q); !errors.Is(err, ErrStateBudget) {
		t.Fatalf("err = %v, want ErrStateBudget", err)
	}
	q2 := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(Options{}, q2); err != nil {
		t.Fatalf("checker unusable after budget failure: %v", err)
	}
	if !q2.Result.Seen {
		t.Error("post-budget query did not run")
	}
}

// TestWorkerPanicContained crashes the sweep from a visitor predicate — the
// same goroutine a corrupt engine state would crash — and requires the run to
// fail with a *PanicError instead of killing the process, inline and with the
// lookahead helper in flight.
// The same checker must then produce a full sweep bit-identical to a fresh
// checker's: the crashed loop abandoned its pools, nothing corrupt was
// recycled.
func TestWorkerPanicContained(t *testing.T) {
	for _, m := range lookaheadModes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Explore(Options{lookahead: m}, func(s *State) bool {
			panic("visitor crash for containment test")
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("lookahead=%d: err = %v, want *PanicError", m, err)
		}
		if pe.Value != "visitor crash for containment test" || len(pe.Stack) == 0 {
			t.Errorf("lookahead=%d: panic error lost its payload: %+v", m, pe)
		}

		after, err := c.Explore(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Explore(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if after.Stored != want.Stored || after.Transitions != want.Transitions {
			t.Errorf("lookahead=%d: post-panic sweep %+v differs from fresh checker %+v",
				m, after.Stats, want.Stats)
		}
	}
}

// TestPanicMidSweepReportsPartialStats panics deep into the hopeless graph's
// sweep and requires the partial effort to survive into the returned Stats.
func TestPanicMidSweepReportsPartialStats(t *testing.T) {
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	res, err := c.Explore(Options{}, func(*State) bool {
		admitted++
		if admitted == 500 {
			panic("late crash")
		}
		return false
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if res.Stored < 500 || res.Popped == 0 {
		t.Errorf("partial stats lost: %+v", res.Stats)
	}
}
