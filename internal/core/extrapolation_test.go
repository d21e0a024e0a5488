package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestStoredZonesStayCanonical sweeps full zone graphs and asserts every
// stored zone is bit-identical to its own full Floyd–Warshall re-closure.
// This is a complete oracle for the incremental canonicalization the
// successor engine uses (dbm.Constrain chains under guards, one
// dbm.DelayUnder for the invariants and the delay, dbm.CloseRows after
// extrapolation): the incremental updates only ever
// lower entries toward path sums, so they can never undershoot the true
// shortest-path values — an inexact result is therefore always
// non-canonical, and canonical means bit-identical to the full closure. The
// hash-keyed passed stores rely on exactly this property.
//
// eqpair and synceq carry the guard shapes — more constraints than distinct
// clocks — that once selected a batched tightening path; their stored counts
// and suprema were recorded on the last commit that had it.
func TestStoredZonesStayCanonical(t *testing.T) {
	inputs := []struct {
		name   string
		net    *ta.Network
		stored int // 0: not pinned
		clock  string
		at     string
		sup    dbm.Bound
	}{
		{name: "radio", net: testRadioNet(t)},
		{name: "diag", net: testDiagNet(t)},
		{name: "eqpair", net: testEqPairNet(t), stored: 59, clock: "x", at: "P.b", sup: dbm.LE(8)},
		{name: "synceq", net: testSyncEqNet(t), stored: 62, clock: "x", at: "Q.busy && P.wait", sup: dbm.LE(1)},
	}
	for _, in := range inputs {
		c, err := NewChecker(in.net)
		if err != nil {
			t.Fatal(err)
		}
		visited := 0
		q := NewReachQuery(func(s *State) bool {
			visited++
			re := s.Zone.Copy()
			re.Close()
			if !s.Zone.Eq(re) {
				t.Errorf("%s: stored zone not canonical:\n got %s\nwant %s", in.name, s.Zone, re)
			}
			return false
		})
		stats, err := c.RunQueries(Options{MaxStates: 20_000}, q)
		if err != nil {
			t.Fatal(err)
		}
		if visited == 0 {
			t.Fatalf("%s: sweep visited no states", in.name)
		}
		if in.stored == 0 {
			continue
		}
		if stats.Stored != in.stored {
			t.Errorf("%s: stored %d states, want %d", in.name, stats.Stored, in.stored)
		}
		clock, ok := in.net.ClockByName(in.clock)
		if !ok {
			t.Fatalf("%s: no clock %s", in.name, in.clock)
		}
		cond, err := ta.ParsePred(in.net, in.at)
		if err != nil {
			t.Fatal(err)
		}
		supQ := NewSupClockQuery(clock.ID, func(s *State) bool { return cond.Holds(s.Locs, s.Vars) })
		if _, err := c.RunQueries(Options{}, supQ); err != nil {
			t.Fatal(err)
		}
		sup := supQ.Result
		if !sup.Seen || sup.Unbounded || sup.Max != in.sup {
			t.Errorf("%s: sup %s @ %s = %v (seen=%v unbounded=%v), want %v",
				in.name, in.clock, in.at, sup.Max, sup.Seen, sup.Unbounded, in.sup)
		}
	}
}

// testEqPairNet guards one edge with x == 8 && y == 3: four constraints over
// three clocks (the reference included). A free-running process multiplies
// the zones the conjunction is applied to.
func testEqPairNet(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("eqpair")
	x := n.AddClock("x")
	y := n.AddClock("y")
	w := n.AddClock("w")
	p := n.AddProcess("P")
	a := p.AddLocation("a", ta.Normal, ta.CLE(x, 5))
	b := p.AddLocation("b", ta.Normal, ta.CLE(y, 3))
	p.AddEdge(ta.Edge{Src: a, Dst: b, ClockGuard: []ta.Constraint{ta.CGE(x, 3)},
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: b, Dst: a, ClockGuard: append(ta.CEq(x, 8), ta.CEq(y, 3)...),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: b, Dst: a, ClockGuard: []ta.Constraint{ta.CLT(x, 7), ta.CGE(y, 2)},
		Resets: []ta.Reset{{Clock: x.ID, Value: 1}}})
	q := n.AddProcess("Q")
	c := q.AddLocation("c", ta.Normal, ta.CLE(w, 7))
	q.AddEdge(ta.Edge{Src: c, Dst: c, ClockGuard: ta.CEq(w, 7),
		Resets: []ta.Reset{{Clock: w.ID, Value: 0}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// testSyncEqNet joins two processes on a binary channel whose emit edge is
// guarded x == 4 and whose receive edge y == 4 — again four constraints over
// three clocks, this time gathered from two parts of one label. The two
// return to their waiting locations up to a time unit apart, so the
// rendezvous is tried on zones where x and y differ.
func testSyncEqNet(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("synceq")
	x := n.AddClock("x")
	y := n.AddClock("y")
	w := n.AddClock("w")
	meet := n.AddChan("meet", ta.Binary)
	p := n.AddProcess("P")
	pw := p.AddLocation("wait", ta.Normal, ta.CLE(x, 4))
	pr := p.AddLocation("run", ta.Normal, ta.CLE(x, 2))
	p.AddEdge(ta.Edge{Src: pw, Dst: pr, ClockGuard: ta.CEq(x, 4),
		Sync:   ta.Sync{Chan: meet.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: pr, Dst: pw, ClockGuard: []ta.Constraint{ta.CGE(x, 1)},
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	q := n.AddProcess("Q")
	qi := q.AddLocation("idle", ta.Normal, ta.CLE(y, 4))
	qb := q.AddLocation("busy", ta.Normal, ta.CLE(y, 2))
	q.AddEdge(ta.Edge{Src: qi, Dst: qb, ClockGuard: ta.CEq(y, 4),
		Sync:   ta.Sync{Chan: meet.ID, Dir: ta.Recv},
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}})
	q.AddEdge(ta.Edge{Src: qb, Dst: qi, ClockGuard: []ta.Constraint{ta.CGE(y, 1)},
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}})
	r := n.AddProcess("R")
	c := r.AddLocation("c", ta.Normal, ta.CLE(w, 5))
	r.AddEdge(ta.Edge{Src: c, Dst: c, ClockGuard: ta.CEq(w, 5),
		Resets: []ta.Reset{{Clock: w.ID, Value: 0}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// testRadioNet exercises urgency, broadcast sync, resets, and extrapolation
// drops (the generator clock runs far past the worker clock's max constant).
func testRadioNet(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("radio")
	x := n.AddClock("x")
	gx := n.AddClock("gx")
	rec := n.AddVar("rec", 0, 0, 4)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)
	gen := n.AddProcess("GEN")
	tick := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, 7))
	gen.AddEdge(ta.Edge{Src: tick, Dst: tick, ClockGuard: ta.CEq(gx, 7),
		Guard:  ta.VarCmp(rec, ta.Lt, 4),
		Update: ta.Inc(rec, 1),
		Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}})
	rad := n.AddProcess("RAD")
	idle := rad.AddLocation("idle", ta.Normal)
	busy := rad.AddLocation("busy", ta.Normal, ta.CLE(x, 3))
	rad.AddEdge(ta.Edge{Src: idle, Dst: busy, Guard: ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Update: ta.Inc(rec, -1),
		Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})
	rad.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(x, 3)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// testDiagNet keeps three clocks correlated through diagonal constraints so
// extrapolation drops bounds that closure re-derives through untouched
// clocks — the case CloseRows' all-pivot structure exists for.
func testDiagNet(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("diag")
	x := n.AddClock("x")
	y := n.AddClock("y")
	z := n.AddClock("z")
	p := n.AddProcess("P")
	a := p.AddLocation("a", ta.Normal, ta.CLE(x, 12))
	b := p.AddLocation("b", ta.Normal, ta.CLE(y, 9))
	p.AddEdge(ta.Edge{Src: a, Dst: b, ClockGuard: []ta.Constraint{ta.CGE(x, 2), ta.DiffLE(x, y, 4)},
		Resets: []ta.Reset{{Clock: z.ID, Value: 0}}})
	p.AddEdge(ta.Edge{Src: b, Dst: a, ClockGuard: ta.CEq(y, 9),
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}})
	q := n.AddProcess("Q")
	w := n.AddClock("w")
	c := q.AddLocation("c", ta.Normal, ta.CLE(w, 30))
	q.AddEdge(ta.Edge{Src: c, Dst: c, ClockGuard: ta.CEq(w, 30),
		Resets: []ta.Reset{{Clock: w.ID, Value: 0}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}
