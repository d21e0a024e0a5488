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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unbounded {
		t.Errorf("expected Unbounded without a registered horizon, got %+v", res)
	}
}

func TestBinarySearchMatchesSup(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, _ := NewChecker(n)
	bs, err := c.BinarySearchWCRT(y.ID, atLoc(p, 0, "L1"), 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Holds {
		t.Fatal("property must hold below 100")
	}
	// Sup is (≤ 10), attained, so AG(y < C) first holds at C = 11.
	if bs.MinimalC != 11 {
		t.Errorf("MinimalC = %d, want 11", bs.MinimalC)
	}

	n2, y2, p2 := buildSimple(t, true)
	c2, _ := NewChecker(n2)
	bs2, err := c2.BinarySearchWCRT(y2.ID, atLoc(p2, 0, "L1"), 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sup is (< 10), never attained, so AG(y < C) already holds at C = 10.
	if bs2.MinimalC != 10 {
		t.Errorf("MinimalC = %d, want 10 for strict sup", bs2.MinimalC)
	}
}

func TestBinarySearchFailsAtHorizon(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, _ := NewChecker(n)
	bs, err := c.BinarySearchWCRT(y.ID, atLoc(p, 0, "L1"), 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Holds {
		t.Error("property cannot hold at C=5 when sup is 10")
	}
}

func TestBinarySearchRejectsBadInterval(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, _ := NewChecker(n)
	if _, err := c.BinarySearchWCRT(y.ID, atLoc(p, 0, "L1"), 5, 5, Options{}); err == nil {
		t.Error("empty interval must be rejected")
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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	found, trace, _, err := c.Reachable(func(st *State) bool {
		return st.Locs[0] == s1 && st.Locs[1] == r1
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("binary sync must move both processes")
	}
	if len(trace) != 2 {
		t.Errorf("trace length = %d, want 2 (init + sync)", len(trace))
	}
	// A state where only one side moved must be unreachable.
	half, _, _, err := c.Reachable(func(st *State) bool {
		return (st.Locs[0] == s1) != (st.Locs[1] == r1)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if half {
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
	found, _, _, err := c.Reachable(func(st *State) bool { return st.Locs[0] == s1 }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if found {
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
	partial, _, _, err := c.Reachable(func(st *State) bool {
		if st.Locs[0] != s1 {
			return false
		}
		for i, rl := range rls {
			if st.Locs[i+1] != rl {
				return true
			}
		}
		return false
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		t.Error("broadcast must move every enabled receiver atomically")
	}
	all, _, _, err := c.Reachable(func(st *State) bool {
		if st.Locs[0] != s1 {
			return false
		}
		for i, rl := range rls {
			if st.Locs[i+1] != rl {
				return false
			}
		}
		return true
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !all {
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
	found, _, _, err := c.Reachable(func(st *State) bool { return st.Locs[0] == s1 }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
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
	bad, _, _, err := c.Reachable(func(st *State) bool {
		return st.Vars[vB.ID] == 1 && st.Vars[vA.ID] == 0
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
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
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	_, err := c.Explore(Options{}, nil)
	if err == nil {
		t.Error("unbounded increment must surface as an analysis error")
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
		found, _, _, err := c.Reachable(pred, Options{Order: order, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
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
	sr, err := c.CheckSafety(Property{
		Desc:  "v stays below 2",
		Holds: func(st *State) bool { return st.Vars[v.ID] < 2 },
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Holds {
		t.Fatal("property must be violated")
	}
	if len(sr.Counterexample) != 3 {
		t.Errorf("counterexample length = %d, want 3 (init + two ticks)", len(sr.Counterexample))
	}
	if s := FormatTrace(n, sr.Counterexample); s == "" {
		t.Error("trace must render")
	}
	// Error case: the checker with a vacuous property holds.
	sr2, err := c.CheckSafety(Property{Desc: "true", Holds: func(*State) bool { return true }},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sr2.Holds {
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
	sr, err := c.CheckSafety(Property{
		Desc:  "no queueing",
		Holds: func(st *State) bool { return st.Vars[rec.ID] <= 1 },
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Holds {
		t.Errorf("requests must never queue with P=10, C=3:\n%s",
			FormatTrace(n, sr.Counterexample))
	}
	// Binary search on the server's busy clock: minimal C with
	// AG(busy → sx < C) is 4 because sx attains 3.
	bs, err := c.BinarySearchWCRT(sx.ID, func(st *State) bool { return st.Locs[1] == busy },
		0, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Holds || bs.MinimalC != 4 {
		t.Errorf("minimal C = %d (holds=%v), want 4", bs.MinimalC, bs.Holds)
	}
}

func TestStatsAndStrings(t *testing.T) {
	n, y, p := buildSimple(t, false)
	c, _ := NewChecker(n)
	res, err := c.SupClock(y.ID, atLoc(p, 0, "L1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
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
