package core

import (
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestInitialStateViolatingInvariant: an initial location whose invariant
// excludes the all-zero valuation through a variable bound (x ≤ D with
// D = -1) is an analysis error, not an empty sweep. A constant bound cannot
// do it: Finalize refuses one below (≤, 0), x < 0 included
// (ta.TestFinalizeRejectsNegativeInvariant).
func TestInitialStateViolatingInvariant(t *testing.T) {
	for name, inv := range map[string]func(n *ta.Network, x ta.Clock) ta.Constraint{
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

// TestBlockFrontierOrderAndReuse: BFS pops in push order and DFS in reverse
// push order however pushes and pops interleave, a drained frontier pops
// nothing until the next push, and the blocks carved stay within what the
// widest backlog needs instead of growing with the number of nodes that ever
// passed through.
func TestBlockFrontierOrderAndReuse(t *testing.T) {
	var slabs dbm.Slabs
	defer slabs.Release()
	for _, order := range []Order{BFS, DFS} {
		f := &frontier{order: order, slabs: &slabs}
		carved := map[*frontBlock]bool{}
		var model []int64 // the refs waiting, in push order
		next, widest := int64(0), 0
		push := func(k int) {
			for ; k > 0; k-- {
				*f.push() = waiting{ref: next}
				carved[f.tail] = true
				model = append(model, next)
				next++
				widest = max(widest, len(model))
			}
		}
		pop := func(k int) {
			for ; k > 0; k-- {
				var n waiting
				if !f.pop(&n) {
					t.Fatalf("%v: pop found nothing with %d waiting", order, len(model))
				}
				var want int64
				if order == BFS {
					want, model = model[0], model[1:]
				} else {
					want, model = model[len(model)-1], model[:len(model)-1]
				}
				if n.ref != want {
					t.Fatalf("%v: popped node %d, want %d", order, n.ref, want)
				}
			}
		}
		// The backlog oscillates around 250 nodes, then empties, grows past
		// three blocks, and climbs by a node every other step.
		push(250)
		for next < 10_000 {
			pop(3)
			push(3)
		}
		pop(len(model))
		if f.pop(new(waiting)) {
			t.Fatalf("%v: a drained frontier popped a node", order)
		}
		push(int(3*frontBlockNodes + 7))
		for i := 0; i < 2_000; i++ {
			push(i % 5)
			pop(i % 4)
		}
		if d := int(frontBlockNodes); len(carved) > widest/d+2 {
			t.Errorf("%v: %d blocks carved for a widest backlog of %d (%d nodes a block)", order, len(carved), widest, d)
		}
		pop(len(model))
		if f.pop(new(waiting)) {
			t.Fatalf("%v: a drained frontier popped a node", order)
		}
	}
}
