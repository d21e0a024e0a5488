package crosscheck

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ta"
)

// FuzzTextMatchesRegionReferee parses .ta text (ta.Parse's format) and checks
// the zone engine against the region referee (region_test.go) on every
// network the referee can judge, breadth- and depth-first, with the sweep of
// TestZoneEngineMatchesRegionReferee: the reachable discrete states, and the
// supremum of every clock in every location, unbounded ones completing their
// query with a witness. Where the referee finds a reachable update that
// takes a variable out of its declared range, the engine must refuse the
// network with that error instead. The filter is refereeJudges. Every
// network the parser accepts must also have its location and edge lists
// allocated at their final length.
func FuzzTextMatchesRegionReferee(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		net, err := ta.ParseWithHook(text, func(n *ta.Network) error {
			// The engine measures every clock up to the horizon exactly,
			// as on the generated networks.
			for x := 1; x < len(n.Clocks); x++ {
				n.EnsureMaxConst(ta.ClockID(x), refHorizon)
			}
			return nil
		})
		if err != nil {
			return
		}
		// The parser's counting pass saw exactly the declarations its
		// second pass added.
		for _, p := range net.Procs {
			if cap(p.Locations) != len(p.Locations) || cap(p.Edges) != len(p.Edges) {
				t.Fatalf("process %s: %d locations in capacity %d, %d edges in capacity %d",
					p.Name, len(p.Locations), cap(p.Locations), len(p.Edges), cap(p.Edges))
			}
		}
		if !refereeJudges(net) {
			return
		}
		want := regionReach(net, refHorizon)
		c, err := core.NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.RunQueries(core.Options{})
		switch {
		case want.leavesRange:
			if err == nil || !strings.Contains(err.Error(), "outside declared range") {
				t.Fatalf("a variable leaves its range for the referee; the engine's sweep returned %v", err)
			}
			return
		case err != nil:
			t.Fatalf("sweep: %v", err)
		}
		for _, order := range []core.Order{core.BFS, core.DFS} {
			compareWithReferee(t, order.String(), net, want, core.Options{Order: order})
		}
	})
}

// refereeJudges reports whether the region referee can judge net within a
// fuzzing budget: at most 3 clocks and 3 processes; at most 4 locations and
// 8 edges a process; at most 3 variables, each ranging over at most 5
// values; every guard and invariant on one clock against a constant of
// magnitude at most refHorizon (no clock difference, no variable bound);
// every reset to at most refHorizon; and no clock freed.
func refereeJudges(net *ta.Network) bool {
	if len(net.Clocks)-1 > 3 || len(net.Procs) > 3 || len(net.Vars) > 3 {
		return false
	}
	for _, v := range net.Vars {
		if v.Max > v.Min+4 {
			return false
		}
	}
	oneClock := func(cs []ta.Constraint) bool {
		for _, c := range cs {
			if v := c.Bound.Value(); c.VarBound || (c.I == 0) == (c.J == 0) || v > refHorizon || v < -refHorizon {
				return false
			}
		}
		return true
	}
	for _, p := range net.Procs {
		if len(p.Locations) > 4 || len(p.Edges) > 8 {
			return false
		}
		for _, l := range p.Locations {
			if !oneClock(l.Invariant) {
				return false
			}
		}
		for _, e := range p.Edges {
			if !oneClock(e.ClockGuard) || len(e.Frees) > 0 {
				return false
			}
			for _, r := range e.Resets {
				if r.Value > refHorizon {
					return false
				}
			}
		}
	}
	return true
}
