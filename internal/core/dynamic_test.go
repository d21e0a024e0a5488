package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestDynamicDeadlineExtension exercises the paper's Fig. 5 mechanism: a
// running task with invariant x ≤ D and completion guard x == D, where D is
// extended by another process mid-execution (modeling preemption delay).
func TestDynamicDeadlineExtension(t *testing.T) {
	n := ta.NewNetwork("dyn")
	x := n.AddClock("x")
	z := n.AddClock("z")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 100)
	d := n.AddVar("D", 5, 0, 20)

	p := n.AddProcess("P")
	run := p.AddLocation("run", ta.Normal, ta.CLEVar(x, d))
	done := p.AddLocation("done", ta.Committed)
	p.AddEdge(ta.Edge{Src: run, Dst: done, ClockGuard: ta.CEqVar(x, d)})

	q := n.AddProcess("Q")
	m0 := q.AddLocation("m0", ta.Normal, ta.CLE(z, 2))
	m1 := q.AddLocation("m1", ta.Normal)
	q.AddEdge(ta.Edge{Src: m0, Dst: m1, ClockGuard: ta.CEq(z, 2),
		Update: ta.Inc(d, 3)})

	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	// The dynamic invariant must have registered D's maximal range.
	if n.MaxConsts[x.ID] < 20 {
		t.Errorf("MaxConsts[x] = %d, want >= 20 from D's range", n.MaxConsts[x.ID])
	}

	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	resQ := NewSupClockQuery(y.ID, func(s *State) bool { return s.Locs[0] == done })
	if _, err := c.RunQueries(Options{}, resQ); err != nil {
		t.Fatal(err)
	}
	res := resQ.Result
	// Q fires at time 2 (forced by its invariant), extending D from 5 to 8,
	// so P completes exactly at time 8 — never at the original 5.
	if res.Max != dbm.LE(8) {
		t.Errorf("sup y at done = %v, want <=8 (deadline extended)", res.Max)
	}
	lo := NewReachQuery(func(s *State) bool {
		return s.Locs[0] == done && s.Zone.Sup(int(y.ID)) < dbm.LE(8)
	})
	if _, err := c.RunQueries(Options{}, lo); err != nil {
		t.Fatal(err)
	}
	if lo.Found {
		t.Error("completion before the extended deadline must be impossible")
	}
}

// TestDynamicGuardLowerBound checks the x ≥ D direction of dynamic bounds.
func TestDynamicGuardLowerBound(t *testing.T) {
	n := ta.NewNetwork("dynlo")
	x := n.AddClock("x")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 100)
	d := n.AddVar("D", 7, 0, 10)
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal)
	l1 := p.AddLocation("l1", ta.Committed)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: []ta.Constraint{ta.CGEVar(x, d)}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewReachQuery(func(s *State) bool {
		return s.Locs[0] == l1 && s.Zone.Sup(int(y.ID)) < dbm.LE(7)
	})
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if q.Found {
		t.Error("transition must not fire before x >= D = 7")
	}
}
