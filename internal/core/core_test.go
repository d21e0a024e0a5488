package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// buildSimple constructs: P: L0 (inv x ≤ 10) --[x ≥ 4 or x > 4]--> L1
// (committed), with a free-running global clock y. The supremum of y at L1 is
// exactly the latest entry time.
func buildSimple(t *testing.T, strictInv bool) (*ta.Network, ta.Clock, *ta.Process) {
	t.Helper()
	n := ta.NewNetwork("simple")
	x := n.AddClock("x")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 100)
	p := n.AddProcess("P")
	var inv ta.Constraint
	if strictInv {
		inv = ta.CLT(x, 10)
	} else {
		inv = ta.CLE(x, 10)
	}
	l0 := p.AddLocation("L0", ta.Normal, inv)
	l1 := p.AddLocation("L1", ta.Committed)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: []ta.Constraint{ta.CGE(x, 4)}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n, y, p
}

func atLoc(p *ta.Process, pi ta.ProcID, name string) func(*State) bool {
	l := p.LocByName(name)
	return func(s *State) bool { return s.Locs[pi] == l }
}

func TestSupClockWeakBound(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if !res.Seen || res.Unbounded {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Max != dbm.LE(10) {
		t.Errorf("sup y = %v, want <=10", res.Max)
	}
}

func TestSupClockStrictBound(t *testing.T) {
	n, y, p := buildSimple(t, true)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if res.Max != dbm.LT(10) {
		t.Errorf("sup y = %v, want <10 (never attained)", res.Max)
	}
}

func TestSupClockUnboundedBeyondHorizon(t *testing.T) {
	// A looping generator resets x but never y, so y grows without bound
	// over iterations. Without a registered horizon for y, extrapolation
	// merges the iterations and the supremum degrades to Unbounded — the
	// documented failure mode when the observation horizon is too small.
	n := ta.NewNetwork("loop")
	x := n.AddClock("x")
	y := n.AddClock("y")
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 10))
	l1 := p.AddLocation("L1", ta.Committed)
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 10),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: []ta.Constraint{ta.CGE(x, 4)}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if !res.Unbounded {
		t.Errorf("expected Unbounded without a registered horizon, got %+v", res)
	}
}

func TestUrgentChannelForbidsDelay(t *testing.T) {
	// A pending request plus an urgent "hurry" emit must fire before any
	// time elapses, so the global clock is still 0 at the target.
	n := ta.NewNetwork("urgent")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 100)
	pend := n.AddVar("pending", 1, 0, 1)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal)
	l1 := p.AddLocation("L1", ta.Committed)
	p.AddEdge(ta.Edge{
		Src: l0, Dst: l1,
		Guard:  ta.VarCmp(pend, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Update: ta.Inc(pend, -1),
	})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if res.Max != dbm.LE(0) {
		t.Errorf("sup y at L1 = %v, want <=0 (urgent transition)", res.Max)
	}
}

func TestNonUrgentChannelAllowsDelay(t *testing.T) {
	// Same model with a plain broadcast channel: the emitter may wait, so y
	// is unbounded at L0 but the zone at L1 keeps y ≥ 0 arbitrary. The sup
	// at L1 (committed, bounded by the horizon via extrapolation) must be
	// Unbounded, demonstrating the semantic difference.
	n := ta.NewNetwork("lazy")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 50)
	pend := n.AddVar("pending", 1, 0, 1)
	ch := n.AddChan("go", ta.Broadcast)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal)
	l1 := p.AddLocation("L1", ta.Committed)
	p.AddEdge(ta.Edge{
		Src: l0, Dst: l1,
		Guard:  ta.VarCmp(pend, ta.Gt, 0),
		Sync:   ta.Sync{Chan: ch.ID, Dir: ta.Emit},
		Update: ta.Inc(pend, -1),
	})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if !res.Unbounded {
		t.Errorf("sup y at L1 should be unbounded for a lazy channel, got %v", res.Max)
	}
}

func TestBinarySyncPairsProcesses(t *testing.T) {
	n := ta.NewNetwork("pair")
	x := n.AddClock("x")
	a := n.AddChan("a", ta.Binary)
	ps := n.AddProcess("S")
	s0 := ps.AddLocation("s0", ta.Normal, ta.CLE(x, 5))
	s1 := ps.AddLocation("s1", ta.Normal)
	ps.AddEdge(ta.Edge{Src: s0, Dst: s1, ClockGuard: ta.CEq(x, 5),
		Sync: ta.Sync{Chan: a.ID, Dir: ta.Emit}})
	pr := n.AddProcess("R")
	r0 := pr.AddLocation("r0", ta.Normal)
	r1 := pr.AddLocation("r1", ta.Normal)
	pr.AddEdge(ta.Edge{Src: r0, Dst: r1, Sync: ta.Sync{Chan: a.ID, Dir: ta.Recv}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewReachQuery(func(st *State) bool {
		return st.Locs[0] == s1 && st.Locs[1] == r1
	})
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if !q.Found {
		t.Fatal("binary sync must move both processes")
	}
	if len(q.Trace) != 2 {
		t.Errorf("trace length = %d, want 2 (init + sync)", len(q.Trace))
	}
	// A state where only one side moved must be unreachable.
	half := NewReachQuery(func(st *State) bool {
		return (st.Locs[0] == s1) != (st.Locs[1] == r1)
	})
	if _, err := c.RunQueries(Options{}, half); err != nil {
		t.Fatal(err)
	}
	if half.Found {
		t.Error("binary sync must be atomic")
	}
}

func TestBinarySyncBlocksWithoutPartner(t *testing.T) {
	n := ta.NewNetwork("alone")
	a := n.AddChan("a", ta.Binary)
	ps := n.AddProcess("S")
	s0 := ps.AddLocation("s0", ta.Normal)
	s1 := ps.AddLocation("s1", ta.Normal)
	ps.AddEdge(ta.Edge{Src: s0, Dst: s1, Sync: ta.Sync{Chan: a.ID, Dir: ta.Emit}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewReachQuery(func(st *State) bool { return st.Locs[0] == s1 })
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if q.Found {
		t.Error("binary emit without receiver must block")
	}
}

func TestBroadcastReachesAllReceivers(t *testing.T) {
	n := ta.NewNetwork("bcast")
	b := n.AddChan("b", ta.Broadcast)
	ps := n.AddProcess("S")
	s0 := ps.AddLocation("s0", ta.Normal)
	s1 := ps.AddLocation("s1", ta.Normal)
	ps.AddEdge(ta.Edge{Src: s0, Dst: s1, Sync: ta.Sync{Chan: b.ID, Dir: ta.Emit}})
	var rls []ta.LocID
	for i := 0; i < 3; i++ {
		pr := n.AddProcess("R")
		r0 := pr.AddLocation("r0", ta.Normal)
		r1 := pr.AddLocation("r1", ta.Normal)
		pr.AddEdge(ta.Edge{Src: r0, Dst: r1, Sync: ta.Sync{Chan: b.ID, Dir: ta.Recv}})
		rls = append(rls, r1)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	// All receivers move in the same transition: a state with the sender
	// moved but any receiver left behind must be unreachable.
	partial := NewReachQuery(func(st *State) bool {
		if st.Locs[0] != s1 {
			return false
		}
		for i, rl := range rls {
			if st.Locs[i+1] != rl {
				return true
			}
		}
		return false
	})
	if _, err := c.RunQueries(Options{}, partial); err != nil {
		t.Fatal(err)
	}
	if partial.Found {
		t.Error("broadcast must move every enabled receiver atomically")
	}
	all := NewReachQuery(func(st *State) bool {
		if st.Locs[0] != s1 {
			return false
		}
		for i, rl := range rls {
			if st.Locs[i+1] != rl {
				return false
			}
		}
		return true
	})
	if _, err := c.RunQueries(Options{}, all); err != nil {
		t.Fatal(err)
	}
	if !all.Found {
		t.Error("broadcast with all receivers must be reachable")
	}
}

func TestBroadcastWithoutReceiversFires(t *testing.T) {
	n := ta.NewNetwork("bcast0")
	b := n.AddChan("b", ta.Broadcast)
	ps := n.AddProcess("S")
	s0 := ps.AddLocation("s0", ta.Normal)
	s1 := ps.AddLocation("s1", ta.Normal)
	ps.AddEdge(ta.Edge{Src: s0, Dst: s1, Sync: ta.Sync{Chan: b.ID, Dir: ta.Emit}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewReachQuery(func(st *State) bool { return st.Locs[0] == s1 })
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if !q.Found {
		t.Error("broadcast emit must not block without receivers")
	}
}

func TestCommittedLocationHasPriority(t *testing.T) {
	// Process A sits in a committed location; process B has an independent
	// tau edge. From the initial state only A's edge may fire.
	n := ta.NewNetwork("committed")
	vA := n.AddVar("a", 0, 0, 1)
	vB := n.AddVar("b", 0, 0, 1)
	pa := n.AddProcess("A")
	a0 := pa.AddLocation("a0", ta.Committed)
	a1 := pa.AddLocation("a1", ta.Normal)
	pa.AddEdge(ta.Edge{Src: a0, Dst: a1, Update: ta.SetConst(vA, 1)})
	pb := n.AddProcess("B")
	b0 := pb.AddLocation("b0", ta.Normal)
	b1 := pb.AddLocation("b1", ta.Normal)
	pb.AddEdge(ta.Edge{Src: b0, Dst: b1, Update: ta.SetConst(vB, 1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	// B moving while A is still committed would give b=1, a=0.
	q := NewReachQuery(func(st *State) bool {
		return st.Vars[vB.ID] == 1 && st.Vars[vA.ID] == 0
	})
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	if q.Found {
		t.Error("non-committed process fired while another was committed")
	}
	_ = a1
	_ = b1
}

func TestUrgentLocationForbidsDelay(t *testing.T) {
	n := ta.NewNetwork("urgloc")
	x := n.AddClock("x")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 100)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 3))
	l1 := p.AddLocation("L1", ta.UrgentLoc)
	l2 := p.AddLocation("L2", ta.Committed)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: ta.CEq(x, 3)})
	p.AddEdge(ta.Edge{Src: l1, Dst: l2})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L2"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	// y must be exactly 3 at L2: delay happened only at L0.
	if res.Max != dbm.LE(3) {
		t.Errorf("sup y at L2 = %v, want <=3", res.Max)
	}
}

func TestVarBoundViolationSurfacesAsError(t *testing.T) {
	n := ta.NewNetwork("overflow")
	v := n.AddVar("v", 0, 0, 2)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal)
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, Update: ta.Inc(v, 1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	for _, m := range lookaheadModes {
		if _, err := c.Explore(Options{lookahead: m}, nil); err == nil {
			t.Errorf("lookahead mode %d: unbounded increment must surface as an analysis error", m)
		}
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	// An infinite-ish system: periodic generator, states distinguished by a
	// wrapping counter would terminate; use a var that grows within bounds.
	n := ta.NewNetwork("big")
	x := n.AddClock("x")
	v := n.AddVar("v", 0, 0, 1000)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 1))
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 1),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(v, 1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	res, err := c.Explore(Options{MaxStates: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("exploration must be truncated at MaxStates")
	}
	if res.Stored < 10 {
		t.Errorf("stored %d states, want >= 10", res.Stored)
	}
}

func TestSearchOrdersAgreeOnReachability(t *testing.T) {
	n := ta.NewNetwork("orders")
	x := n.AddClock("x")
	v := n.AddVar("v", 0, 0, 5)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 2))
	l1 := p.AddLocation("L1", ta.Normal, ta.CLE(x, 2))
	p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: ta.CEq(x, 2),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(v, 1)})
	p.AddEdge(ta.Edge{Src: l1, Dst: l0, ClockGuard: ta.CEq(x, 1),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: l1, Dst: l0, ClockGuard: ta.CEq(x, 2),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(v, -1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	pred := func(st *State) bool { return st.Vars[v.ID] == 3 }
	for _, order := range []Order{BFS, DFS, RDFS} {
		q := NewReachQuery(pred)
		if _, err := c.RunQueries(Options{Order: order, Seed: 42}, q); err != nil {
			t.Fatal(err)
		}
		if !q.Found {
			t.Errorf("order %v: v==3 must be reachable", order)
		}
	}
}

func TestSafetyCounterexampleTrace(t *testing.T) {
	n := ta.NewNetwork("trace")
	x := n.AddClock("x")
	v := n.AddVar("v", 0, 0, 3)
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal, ta.CLE(x, 1))
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, ClockGuard: ta.CEq(x, 1),
		Guard:  ta.VarCmp(v, ta.Lt, 3), // keep the state space finite
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(v, 1)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	// AG(v < 2) is violated exactly when v >= 2 is reachable.
	violation := NewReachQuery(func(st *State) bool { return st.Vars[v.ID] >= 2 })
	if _, err := c.RunQueries(Options{}, violation); err != nil {
		t.Fatal(err)
	}
	if !violation.Found {
		t.Fatal("property must be violated")
	}
	if len(violation.Trace) != 3 {
		t.Errorf("counterexample length = %d, want 3 (init + two ticks)", len(violation.Trace))
	}
	if s := FormatTrace(n, violation.Trace); s == "" {
		t.Error("trace must render")
	}
	// Error case: the vacuous property AG(true) holds, as false is unreachable.
	vacuous := NewReachQuery(func(*State) bool { return false })
	if _, err := c.RunQueries(Options{}, vacuous); err != nil {
		t.Fatal(err)
	}
	if vacuous.Found {
		t.Error("vacuous property must hold")
	}
}

func TestPeriodicServerResponse(t *testing.T) {
	// Periodic generator (P=10) feeding a 3-unit server through a counter
	// and an urgent channel: the classic pattern of the paper's Fig 4. The
	// server's busy clock never exceeds 3 and requests never queue.
	n := ta.NewNetwork("server")
	gx := n.AddClock("gx")
	sx := n.AddClock("sx")
	rec := n.AddVar("rec", 0, 0, 5)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)

	gen := n.AddProcess("GEN")
	g0 := gen.AddLocation("g0", ta.Normal, ta.CLE(gx, 10))
	gen.AddEdge(ta.Edge{Src: g0, Dst: g0, ClockGuard: ta.CEq(gx, 10),
		Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}, Update: ta.Inc(rec, 1)})

	srv := n.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 3))
	srv.AddEdge(ta.Edge{Src: idle, Dst: busy,
		Guard:  ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}},
		Update: ta.Inc(rec, -1)})
	srv.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(sx, 3)})

	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewChecker(n)
	queued := NewReachQuery(func(st *State) bool { return st.Vars[rec.ID] > 1 })
	if _, err := c.RunQueries(Options{}, queued); err != nil {
		t.Fatal(err)
	}
	if queued.Found {
		t.Errorf("requests must never queue with P=10, C=3:\n%s",
			FormatTrace(n, queued.Trace))
	}
	// The server's busy clock attains 3, so the least C with
	// AG(busy → sx < C) is 4.
	busyQ := NewSupClockQuery(sx.ID, func(st *State) bool { return st.Locs[1] == busy })
	if _, err := c.RunQueries(Options{}, busyQ); err != nil {
		t.Fatal(err)
	}
	if busyQ.Result.Max != dbm.LE(3) {
		t.Errorf("sup sx while busy = %v, want <=3", busyQ.Result.Max)
	}
}

func TestStatsAndStrings(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, _ := NewChecker(n)
	q := NewSupClockQuery(y.ID, atLoc(p, 0, "L1"))
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	res := q.Result
	if res.Stored < 2 || res.Popped < 1 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
	if res.Stats.String() == "" || BFS.String() != "bfs" || DFS.String() != "df" || RDFS.String() != "rdf" {
		t.Error("string renderings broken")
	}
}

func TestUnfinalizedNetworkRejected(t *testing.T) {
	n := ta.NewNetwork("raw")
	n.AddProcess("P").AddLocation("l", ta.Normal)
	if _, err := NewChecker(n); err == nil {
		t.Error("unfinalized network must be rejected")
	}
}

// TestParseOrderRoundTrip pins the one search-order table: every Order parses
// back from its String, the empty string selects BFS (what the service
// defaults to), and any other spelling is an error naming the valid ones.
func TestParseOrderRoundTrip(t *testing.T) {
	for _, o := range []Order{BFS, DFS, RDFS} {
		if got, err := ParseOrder(o.String()); err != nil || got != o {
			t.Errorf("ParseOrder(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if got, err := ParseOrder(""); err != nil || got != BFS {
		t.Errorf(`ParseOrder("") = %v, %v; want BFS`, got, err)
	}
	for _, bad := range []string{"dfs", "BFS", "?"} {
		if _, err := ParseOrder(bad); err == nil {
			t.Errorf("ParseOrder(%q) accepted an unknown order", bad)
		}
	}
}
