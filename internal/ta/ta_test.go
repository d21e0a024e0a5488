package ta

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dbm"
)

func TestBuilderBasics(t *testing.T) {
	n := NewNetwork("demo")
	x := n.AddClock("x")
	if x.ID != 1 {
		t.Fatalf("first user clock should have ID 1, got %d", x.ID)
	}
	if n.NumClocks() != 2 {
		t.Fatalf("NumClocks = %d, want 2 (reference + x)", n.NumClocks())
	}
	v := n.AddVar("rec", 0, 0, 10)
	c := n.AddChan("hurry", BroadcastUrgent)
	p := n.AddProcess("P")
	idle := p.AddLocation("idle", Normal)
	busy := p.AddLocation("busy", Normal, CLE(x, 5))
	p.AddEdge(Edge{
		Src: idle, Dst: busy,
		Guard:  VarCmp(v, Gt, 0),
		Sync:   Sync{Chan: c.ID, Dir: Emit},
		Resets: []Reset{{x.ID, 0}},
		Update: Inc(v, -1),
	})
	p.AddEdge(Edge{Src: busy, Dst: idle, ClockGuard: CEq(x, 5)})
	if err := n.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := p.SyncEdges(idle); len(got) != 1 || got[0] != (SyncEdge{Chan: c.ID, Dir: Emit, Edge: 0}) {
		t.Errorf("SyncEdges(idle) = %v", got)
	}
	if got := p.TauEdges(idle); len(got) != 0 {
		t.Errorf("TauEdges(idle) = %v", got)
	}
	if got := p.TauEdges(busy); len(got) != 1 || got[0] != 1 {
		t.Errorf("TauEdges(busy) = %v", got)
	}
	if got := p.SyncEdges(busy); len(got) != 0 {
		t.Errorf("SyncEdges(busy) = %v", got)
	}
	if n.MaxConsts[x.ID] != 5 {
		t.Errorf("MaxConsts[x] = %d, want 5", n.MaxConsts[x.ID])
	}
}

func TestFinalizeTwiceFails(t *testing.T) {
	n := NewNetwork("demo")
	p := n.AddProcess("P")
	p.AddLocation("idle", Normal)
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err == nil {
		t.Error("second Finalize must fail")
	}
}

func TestFinalizeRejectsEmptyNetwork(t *testing.T) {
	n := NewNetwork("empty")
	if err := n.Finalize(); err == nil {
		t.Error("network without processes must be rejected")
	}
}

func TestFinalizeRejectsEmptyProcess(t *testing.T) {
	n := NewNetwork("x")
	n.AddProcess("P")
	if err := n.Finalize(); err == nil {
		t.Error("process without locations must be rejected")
	}
}

func TestFinalizeRejectsDanglingEdge(t *testing.T) {
	n := NewNetwork("x")
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: 7})
	if err := n.Finalize(); err == nil {
		t.Error("edge to unknown location must be rejected")
	}
}

func TestFinalizeRejectsUrgentClockGuard(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	h := n.AddChan("hurry", BroadcastUrgent)
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{
		Src: l, Dst: l,
		ClockGuard: []Constraint{CGE(x, 3)},
		Sync:       Sync{Chan: h.ID, Dir: Emit},
	})
	if err := n.Finalize(); err == nil {
		t.Error("clock guard on urgent emit must be rejected")
	}
}

func TestFinalizeRejectsBadVarRange(t *testing.T) {
	n := NewNetwork("x")
	n.AddVar("v", 5, 0, 3)
	p := n.AddProcess("P")
	p.AddLocation("idle", Normal)
	if err := n.Finalize(); err == nil {
		t.Error("initial value outside range must be rejected")
	}
}

func TestFinalizeRejectsNegativeInvariant(t *testing.T) {
	// No clock value meets x<0 either, so it goes like x<=-1.
	for _, c := range []struct {
		inv  func(Clock) Constraint
		want string
	}{
		{func(x Clock) Constraint { return CLE(x, -1) }, "upper bound below zero: x<=-1"},
		{func(x Clock) Constraint { return CLT(x, 0) }, "upper bound below zero: x<0"},
	} {
		n := NewNetwork("x")
		x := n.AddClock("x")
		n.AddProcess("P").AddLocation("bad", Normal, c.inv(x))
		if err := n.Finalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Finalize = %v, want an error containing %q", err, c.want)
		}
	}
}

func TestMaxConstsFromGuardsResetsAndEnsure(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	y := n.AddClock("y")
	n.EnsureMaxConst(y.ID, 1000)
	p := n.AddProcess("P")
	a := p.AddLocation("a", Normal)
	p.AddEdge(Edge{Src: a, Dst: a, ClockGuard: []Constraint{CGE(x, 42)}})
	p.AddEdge(Edge{Src: a, Dst: a, Resets: []Reset{{x.ID, 7}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n.MaxConsts[x.ID] != 42 {
		t.Errorf("MaxConsts[x] = %d, want 42", n.MaxConsts[x.ID])
	}
	if n.MaxConsts[y.ID] != 1000 {
		t.Errorf("MaxConsts[y] = %d, want 1000 from EnsureMaxConst", n.MaxConsts[y.ID])
	}
}

func TestExprEval(t *testing.T) {
	a := IntVar{0, "a"}
	b := IntVar{1, "b"}
	v := []int64{3, 4}
	cases := []struct {
		e    Expr
		want int64
	}{
		{C(7), 7},
		{V(a), 3},
		{Plus(V(a), V(b)), 7},
		{Minus(V(b), C(1)), 3},
		{Times(V(a), V(b)), 12},
		{Ite(VarCmp(a, Lt, 0), V(a), Minus(V(a), C(1))), 2},
		{Ite(VarCmp(a, Gt, 0), V(a), Minus(V(a), C(1))), 3},
	}
	for _, c := range cases {
		if got := c.e.Eval(v); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestGuardEval(t *testing.T) {
	a := IntVar{0, "a"}
	v := []int64{5}
	cases := []struct {
		g    Guard
		want bool
	}{
		{VarCmp(a, Eq, 5), true},
		{VarCmp(a, Ne, 5), false},
		{VarCmp(a, Lt, 6), true},
		{VarCmp(a, Le, 5), true},
		{VarCmp(a, Gt, 5), false},
		{VarCmp(a, Ge, 5), true},
		{And(VarCmp(a, Gt, 0), VarCmp(a, Lt, 10)), true},
		{And(VarCmp(a, Gt, 0), VarCmp(a, Lt, 5)), false},
		{And(nil, VarCmp(a, Eq, 5)), true},
	}
	for _, c := range cases {
		if got := c.g.Eval(v); got != c.want {
			t.Errorf("%s = %v, want %v", c.g, got, c.want)
		}
	}
	if !EvalGuard(nil, v) {
		t.Error("nil guard must be true")
	}
}

func TestUpdateApply(t *testing.T) {
	a := IntVar{0, "a"}
	b := IntVar{1, "b"}
	v := []int64{1, 2}
	Do(Inc(a, 1), Set(b, Plus(V(a), C(10))), nil).Apply(v)
	if v[0] != 2 || v[1] != 12 {
		t.Errorf("after update v = %v, want [2 12]", v)
	}
	ApplyUpdate(nil, v) // must not panic
	ApplyUpdate(SetConst(a, 0), v)
	if v[0] != 0 {
		t.Errorf("SetConst failed, v = %v", v)
	}
}

func TestMeasuringUpdatePattern(t *testing.T) {
	// The Fig. 9 update m = (m<0 ? m : m-1), n-- from the paper.
	m := IntVar{0, "m"}
	nvar := IntVar{1, "n"}
	upd := Do(Set(m, Ite(VarCmp(m, Lt, 0), V(m), Minus(V(m), C(1)))), Inc(nvar, -1))
	v := []int64{2, 3}
	upd.Apply(v)
	if v[0] != 1 || v[1] != 2 {
		t.Errorf("v = %v, want [1 2]", v)
	}
	v = []int64{-1, 3}
	upd.Apply(v)
	if v[0] != -1 || v[1] != 2 {
		t.Errorf("v = %v, want [-1 2]", v)
	}
}

func TestConstraintHelpers(t *testing.T) {
	x := Clock{1, "x"}
	y := Clock{2, "y"}
	if c := CLE(x, 5); c.I != 1 || c.J != 0 || c.Bound != dbm.LE(5) {
		t.Errorf("CLE wrong: %+v", c)
	}
	if c := CGT(x, 5); c.I != 0 || c.J != 1 || c.Bound != dbm.LT(-5) {
		t.Errorf("CGT wrong: %+v", c)
	}
	if cs := CEq(x, 3); len(cs) != 2 {
		t.Errorf("CEq must produce two constraints")
	}
	if c := DiffLE(x, y, 2); c.I != 1 || c.J != 2 || c.Bound != dbm.LE(2) {
		t.Errorf("DiffLE wrong: %+v", c)
	}
}

func TestApplyConstraints(t *testing.T) {
	x := Clock{1, "x"}
	z := dbm.New(2)
	z.Up()
	if !ApplyConstraints(z, []Constraint{CGE(x, 3), CLE(x, 5)}, nil) {
		t.Fatal("3<=x<=5 must be satisfiable after delay")
	}
	if z.Sup(1) != dbm.LE(5) || z.Inf(1) != dbm.LE(3) {
		t.Errorf("zone bounds [%v,%v], want [<=3,<=5]", z.Inf(1), z.Sup(1))
	}
	if ApplyConstraints(z, []Constraint{CGT(x, 5)}, nil) {
		t.Error("x>5 must empty the zone")
	}
}

func TestQuickCmpOpMatchesGo(t *testing.T) {
	f := func(a, b int64) bool {
		v := []int64{a, b}
		x := IntVar{0, "x"}
		y := IntVar{1, "y"}
		return Cmp(V(x), Eq, V(y)).Eval(v) == (a == b) &&
			Cmp(V(x), Ne, V(y)).Eval(v) == (a != b) &&
			Cmp(V(x), Lt, V(y)).Eval(v) == (a < b) &&
			Cmp(V(x), Le, V(y)).Eval(v) == (a <= b) &&
			Cmp(V(x), Gt, V(y)).Eval(v) == (a > b) &&
			Cmp(V(x), Ge, V(y)).Eval(v) == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFlatVarCmpMatchesTree pins the flat variable-against-constant guard
// (VarCmp, and Cmp on the same operands — the .ta parser's spelling) to the
// generic comparison tree: same value for every operator on either side of
// and at the constant, same text.
func TestFlatVarCmpMatchesTree(t *testing.T) {
	pad := IntVar{0, "pad"}
	x := IntVar{1, "pending"}
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, k := range []int64{-1, 0, 7} {
			tree := cmpGuard{V(x), op, C(k)}
			for _, g := range []Guard{VarCmp(x, op, k), Cmp(V(x), op, C(k))} {
				if _, flat := g.(varCmpGuard); !flat {
					t.Fatalf("%s: got %T, want the flat form", tree, g)
				}
				if g.String() != tree.String() {
					t.Errorf("flat form prints %q, tree prints %q", g, tree)
				}
				for _, val := range []int64{k - 1, k, k + 1} {
					v := []int64{99, val} // indexed by VarID: pad, pending
					if got, want := g.Eval(v), tree.Eval(v); got != want {
						t.Errorf("%s at %d: flat %v, tree %v", tree, val, got, want)
					}
				}
			}
		}
	}
	// Any other operand shape stays a tree.
	for _, g := range []Guard{Cmp(C(3), Lt, V(x)), Cmp(V(x), Lt, V(pad)), Cmp(Plus(V(x), C(1)), Eq, C(2))} {
		if _, tree := g.(cmpGuard); !tree {
			t.Errorf("%s: got %T, want the generic comparison", g, g)
		}
	}
}

func TestStringRendering(t *testing.T) {
	a := IntVar{0, "a"}
	g := And(VarCmp(a, Gt, 0), VarCmp(a, Ne, 3))
	if s := g.String(); !strings.Contains(s, "a > 0") {
		t.Errorf("guard string %q should mention a > 0", s)
	}
	u := Do(Inc(a, 1), Inc(a, -1), Inc(a, 5))
	if s := u.String(); !strings.Contains(s, "a++") || !strings.Contains(s, "a--") {
		t.Errorf("update string %q", s)
	}
	n := NewNetwork("net")
	n.AddProcess("P").AddLocation("l", Committed)
	if s := n.String(); !strings.Contains(s, "net") {
		t.Errorf("network string %q", s)
	}
	if Committed.String() != "committed" || UrgentLoc.String() != "urgent" {
		t.Error("LocKind strings wrong")
	}
	if BroadcastUrgent.String() != "urgent broadcast chan" {
		t.Error("ChanKind string wrong")
	}
}

func TestCheckVarBounds(t *testing.T) {
	n := NewNetwork("x")
	n.AddVar("v", 0, 0, 3)
	p := n.AddProcess("P")
	p.AddLocation("idle", Normal)
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckVarBounds([]int64{2}); err != nil {
		t.Errorf("in-range valuation rejected: %v", err)
	}
	if err := n.CheckVarBounds([]int64{4}); err == nil {
		t.Error("out-of-range valuation must be rejected")
	}
}
