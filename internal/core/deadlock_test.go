package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

func TestDeadlockDetected(t *testing.T) {
	// A single location with an invariant and no outgoing edge is a
	// time-lock: nothing can ever happen.
	n := ta.NewNetwork("dead")
	x := n.AddClock("x")
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 3))
	l1 := p.AddLocation("stuck", ta.Normal)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: ta.CEq(x, 3)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if res.Free {
		t.Fatal("absorbing location must be reported as a deadlock")
	}
	if len(res.Witness) != 2 {
		t.Errorf("witness length = %d, want 2", len(res.Witness))
	}
}

func TestDeadlockFreeCycle(t *testing.T) {
	n := ta.NewNetwork("live")
	x := n.AddClock("x")
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 3))
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 3),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if !res.Free {
		t.Errorf("cycling automaton must be deadlock free:\n%s",
			FormatTrace(n, res.Witness))
	}
	if res.Deadlocks != 0 {
		t.Errorf("deadlock count = %d, want 0", res.Deadlocks)
	}
}

func TestBlockedBinarySyncIsDeadlock(t *testing.T) {
	// An emitter without a partner blocks forever.
	n := ta.NewNetwork("blocked")
	a := n.AddChan("a", ta.Binary)
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal)
	l1 := p.AddLocation("l1", ta.Normal)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, Sync: ta.Sync{Chan: a.ID, Dir: ta.Emit}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if res.Free {
		t.Error("unmatched binary emit must deadlock")
	}
}

// TestFreeClockMergesStates demonstrates the active-clock reduction: without
// freeing, a never-reset auxiliary clock splits otherwise-identical states.
func TestFreeClockMergesStates(t *testing.T) {
	build := func(free bool) *ta.Network {
		n := ta.NewNetwork("merge")
		x := n.AddClock("x")
		y := n.AddClock("y")
		n.EnsureMaxConst(y.ID, 1000)
		v := n.AddVar("v", 0, 0, 3)
		p := n.AddProcess("P")
		l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 10))
		e := ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 10),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}},
			Update: ta.Set(v, ta.Ite(ta.VarCmp(v, ta.Lt, 3), ta.Plus(ta.V(v), ta.C(1)), ta.C(3)))}
		if free {
			e.Frees = []ta.ClockID{y.ID}
		}
		p.AddEdge(e)
		if err := n.Finalize(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	cWith, _ := NewChecker(build(true))
	cWithout, _ := NewChecker(build(false))
	resWith, err := cWith.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := cWithout.Explore(Options{MaxStates: 10000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resWith.Stored >= resWithout.Stored {
		t.Errorf("freeing should shrink the zone graph: %d (free) vs %d",
			resWith.Stored, resWithout.Stored)
	}
	// Freed-clock zones must still constrain the other clock normally.
	q := NewSupClockQuery(1, func(s *State) bool { return s.Vars[0] == 3 })
	if _, err := cWith.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	sup := q.Result
	if sup.Max != dbm.LE(10) {
		t.Errorf("x sup = %v, want <=10", sup.Max)
	}
}

// TestQueueDepthStaysWithinOne checks that an urgent broadcast dispatch
// takes each pending event at once.
func TestQueueDepthStaysWithinOne(t *testing.T) {
	// Generator at period 3 feeding a 2-unit server: the counter oscillates
	// between 0 and 1.
	n := ta.NewNetwork("depth")
	gx := n.AddClock("gx")
	sx := n.AddClock("sx")
	rec := n.AddVar("rec", 0, 0, 8)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)
	gen := n.AddProcess("GEN")
	g0 := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, 3))
	gen.AddEdge(ta.Edge{Src: g0, Dst: g0, ClockGuard: ta.CEq(gx, 3),
		Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}, Update: ta.Inc(rec, 1)})
	srv := n.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 2))
	srv.AddEdge(ta.Edge{Src: idle, Dst: busy, Guard: ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}}, Update: ta.Inc(rec, -1)})
	srv.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(sx, 2)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	queued := NewReachQuery(func(s *State) bool { return s.Vars[rec.ID] > 1 })
	if _, err := c.RunQueries(Options{}, queued); err != nil {
		t.Fatal(err)
	}
	if queued.Found {
		t.Errorf("rec reaches 2:\n%s", FormatTrace(n, queued.Trace))
	}
	one := NewReachQuery(func(s *State) bool { return s.Vars[rec.ID] == 1 })
	if _, err := c.RunQueries(Options{}, one); err != nil {
		t.Fatal(err)
	}
	if !one.Found {
		t.Error("rec = 1 must be reachable")
	}
}
