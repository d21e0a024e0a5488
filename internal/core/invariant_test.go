package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestInitialStateViolatingInvariant: an initial location whose invariant
// excludes the all-zero valuation — statically (x < 0) or through a variable
// bound (x ≤ D with D = -1) — is an analysis error, not an empty sweep.
func TestInitialStateViolatingInvariant(t *testing.T) {
	for name, inv := range map[string]func(n *ta.Network, x ta.Clock) ta.Constraint{
		"static": func(_ *ta.Network, x ta.Clock) ta.Constraint { return ta.CLT(x, 0) },
		"variable": func(n *ta.Network, x ta.Clock) ta.Constraint {
			return ta.CLEVar(x, n.AddVar("D", -1, -1, 5))
		},
	} {
		n := ta.NewNetwork("badinit")
		x := n.AddClock("x")
		n.AddProcess("P").AddLocation("l0", ta.Normal, inv(n, x))
		if err := n.Finalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := NewChecker(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = c.Explore(Options{}, nil)
		if err == nil || !strings.Contains(err.Error(), "initial state violates an invariant") {
			t.Errorf("%s: Explore error = %v, want the invariant-violation error", name, err)
		}
	}
}

// TestTargetInvariantDisablesTransition: an edge whose target invariant the
// post-transition zone cannot meet yields no successor, whether the target
// vector allows delay (normal locations) or not (urgent ones). The sibling
// edge into a satisfiable invariant fires; its zone is delay-closed up to
// that invariant — x by its own bound, the free-running y through the
// diagonal — or, at an urgent target, only intersected with it.
func TestTargetInvariantDisablesTransition(t *testing.T) {
	for _, kind := range []ta.LocKind{ta.Normal, ta.UrgentLoc} {
		n := ta.NewNetwork("tgt")
		x := n.AddClock("x")
		y := n.AddClock("y")
		n.EnsureMaxConst(y.ID, 20)
		p := n.AddProcess("P")
		l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 5))
		tight := p.AddLocation("tight", kind, ta.CLT(x, 3))
		loose := p.AddLocation("loose", kind, ta.CLE(x, 9), ta.CLE(x, 7))
		// x ≥ 3 on firing: x < 3 is unsatisfiable at the target, x ≤ 7 is not.
		p.AddEdge(ta.Edge{Src: l0, Dst: tight, ClockGuard: []ta.Constraint{ta.CGE(x, 3)}})
		p.AddEdge(ta.Edge{Src: l0, Dst: loose, ClockGuard: []ta.Constraint{ta.CGE(x, 3)}})
		if err := n.Finalize(); err != nil {
			t.Fatal(err)
		}
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		ctx := c.eng.newCtx(nil)
		init, err := c.eng.initial(&ctx.closeScratch)
		if err != nil {
			t.Fatal(err)
		}
		if got := init.Zone.Sup(int(x.ID)); got != dbm.LE(5) {
			t.Fatalf("initial sup x = %v, want <=5", got)
		}
		succs, err := c.eng.successors(ctx, init, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(succs) != 1 || succs[0].state.Locs[0] != loose {
			t.Fatalf("kind %v: %d successors, want exactly the edge into loose", kind, len(succs))
		}
		z := succs[0].state.Zone
		// Fired from 3 ≤ x ≤ 5. Of loose's two invariants the tighter one
		// (x ≤ 7) ends the delay; an urgent target does not delay at all.
		want := dbm.LE(7)
		if kind == ta.UrgentLoc {
			want = dbm.LE(5)
		}
		if z.Inf(int(x.ID)) != dbm.LE(3) || z.Sup(int(x.ID)) != want || z.Sup(int(y.ID)) != want {
			t.Errorf("kind %v: zone at loose = %s, want 3 <= x = y %v", kind, z, want)
		}
	}
}

// TestListFrontierReusesSlots: BFS pops in push order however pushes and pops
// interleave, the backlog is list[head:], and the backing array stays within
// a small multiple of the widest backlog instead of growing with the number
// of states that ever passed through.
func TestListFrontierReusesSlots(t *testing.T) {
	var stop atomic.Bool
	f := &listFrontier{order: BFS, stop: &stop}
	states := make([]*State, 10_000)
	for i := range states {
		states[i] = &State{}
	}
	next, popped := 0, 0
	push := func(k int) {
		for ; k > 0 && next < len(states); k-- {
			f.push(0, states[next])
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			s := f.pop(0)
			if s != states[popped] {
				t.Fatalf("pop %d returned the wrong state", popped)
			}
			popped++
		}
	}
	push(40)
	for next < len(states) {
		pop(3) // backlog oscillates around 40
		push(3)
		if d := len(f.list) - f.head; d != next-popped {
			t.Fatalf("list[head:] holds %d with %d waiting", d, next-popped)
		}
	}
	pop(next - popped)
	if f.pop(0) != nil || len(f.list) != f.head {
		t.Fatal("drained frontier must pop nil at depth 0")
	}
	if c := cap(f.list); c > 256 {
		t.Errorf("backing array grew to %d slots for a backlog of about 40", c)
	}
	// LIFO orders are untouched by the head index.
	f = &listFrontier{order: DFS, stop: &stop}
	f.push(0, states[0])
	f.push(0, states[1])
	if f.pop(0) != states[1] || f.pop(0) != states[0] || f.pop(0) != nil {
		t.Error("DFS must pop in reverse push order")
	}
}
