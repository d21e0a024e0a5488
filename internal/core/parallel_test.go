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
	// Racy double-admission can store a state twice, so the parallel count
	// may exceed the sequential one slightly, never undercut it.
	if par.Stored < seq.Stored {
		t.Errorf("parallel stored %d < sequential %d", par.Stored, seq.Stored)
	}
	if par.Stored > seq.Stored+seq.Stored/10+8 {
		t.Errorf("parallel stored %d unreasonably above sequential %d", par.Stored, seq.Stored)
	}
}

func TestParallelSupMatchesSequential(t *testing.T) {
	n, sx, srv, busy := buildGrid(t)
	_ = srv
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
	if seq.Max != par.Max || seq.Unbounded != par.Unbounded || seq.Seen != par.Seen {
		t.Errorf("parallel sup %v (unbounded=%v) != sequential %v (unbounded=%v)",
			par.Max, par.Unbounded, seq.Max, seq.Unbounded)
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
	if _, err := c.Explore(Options{Workers: 4}, nil); err == nil {
		t.Error("variable overflow must propagate from workers")
	}
}

func TestParallelVisitorStops(t *testing.T) {
	n, _, _, busy := buildGrid(t)
	c, _ := NewChecker(n)
	res, err := c.Explore(Options{Workers: 4}, func(s *State) bool {
		return s.Locs[3] == busy
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundState == nil {
		t.Fatal("parallel visitor stop must record the found state")
	}
	if len(res.Trace) == 0 {
		t.Fatal("parallel visitor stop must reconstruct a trace")
	}
	last := res.Trace[len(res.Trace)-1].State
	if last.Locs[3] != busy {
		t.Error("parallel trace must end in the found state")
	}
	assertTraceValid(t, c, res.Trace)
}

func TestParallelMaxStatesTruncates(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, _ := NewChecker(n)
	res, err := c.Explore(Options{MaxStates: 50, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("parallel exploration must truncate at MaxStates")
	}
}
