package crosscheck

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestZoneEngineMatchesDigitalReferee checks the zone engine against the
// discrete-time referee (digitize_test.go) on 400 generated closed networks,
// breadth- and depth-first. One RunQueries sweep per run
// carries a reach query that records every admitted state and never
// completes — so the sweep is exhaustive — and one supremum query per
// (process, location, clock). The reachable discrete states must be the
// referee's, and every supremum below the horizon must be the referee's:
// not seen, or attained at the same integer. Past the horizon the referee
// only knows "beyond", and the engine must say so too: unbounded, or a bound
// above the horizon. (Extrapolation widens a bound past its constant to
// infinity, but closure can derive a finite one again through a kept
// diagonal: x ≤ y + 3 with y ≤ 3 bounds x by 6 over a constant of 5. That
// value is exact, and the referee, capped at the horizon, cannot check it.)
//
// Deadlock is not compared. The engine reports a deadlock for a stored zone
// none of whose valuations has an action successor, and which zones are
// stored depends on subsumption: a concrete state with no successor inside a
// zone that has one is no deadlock to the engine. That is a property of the
// zone graph, not of the integer states, so the referee cannot restate it.
func TestZoneEngineMatchesDigitalReferee(t *testing.T) {
	const nets = 400
	r := rand.New(rand.NewSource(2006))
	for i := 0; i < nets; i++ {
		net := genClosedNet(r, i, false)
		want := digitalReach(net, refHorizon)
		for _, order := range []core.Order{core.BFS, core.DFS} {
			what := fmt.Sprintf("%s, %s", net.Name, order)
			compareWithReferee(t, what, net, want, core.Options{Order: order})
		}
		if t.Failed() {
			t.Fatalf("first failing network:\n%s", net.String())
		}
	}
}

// TestZoneEngineMatchesRegionReferee checks the zone engine against the
// region-graph referee (region_test.go) on generated networks whose guards
// and invariants may be strict, breadth- and depth-first, with the same
// sweep as TestZoneEngineMatchesDigitalReferee. Integer time cannot judge
// these networks: a guard x > 1 on a clock that an invariant x < 2 stops is
// enabled only at fractional times. The suprema are compared with their
// strictness: attained (≤ c) or only approached (< c).
func TestZoneEngineMatchesRegionReferee(t *testing.T) {
	const nets = 400
	r := rand.New(rand.NewSource(1990))
	for i := 0; i < nets; i++ {
		net := genClosedNet(r, i, true)
		want := regionReach(net, refHorizon)
		for _, order := range []core.Order{core.BFS, core.DFS} {
			compareWithReferee(t, fmt.Sprintf("%s, %s", net.Name, order), net, want, core.Options{Order: order})
		}
		if t.Failed() {
			t.Fatalf("first failing network:\n%s", net.String())
		}
	}
}

// supKey names one supremum query: clock x over the states with process p in
// location l.
type supKey struct{ p, l, x int }

// compareWithReferee runs the engine once on net under opts and compares its
// answers with the referee's.
func compareWithReferee(t *testing.T, what string, net *ta.Network, want refAnswer, opts core.Options) {
	t.Helper()
	c, err := core.NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	queries := []core.Query{core.NewReachQuery(func(s *core.State) bool {
		got[projectionKey(s.Locs, s.Vars)] = true
		return false
	})}
	sups := map[supKey]*core.SupClockQuery{}
	for p, proc := range net.Procs {
		for l := range proc.Locations {
			for x := 1; x < len(net.Clocks); x++ {
				p, l := p, ta.LocID(l)
				q := core.NewSupClockQuery(ta.ClockID(x), func(s *core.State) bool { return s.Locs[p] == l })
				sups[supKey{p, int(l), x}] = q
				queries = append(queries, q)
			}
		}
	}
	if _, err := c.RunQueries(opts, queries...); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for k := range want.reach {
		if !got[k] {
			t.Errorf("%s: discrete state %s is reachable for the referee but not in the zone graph", what, k)
		}
	}
	for k := range got {
		if !want.reach[k] {
			t.Errorf("%s: discrete state %s is in the zone graph but not reachable for the referee", what, k)
		}
	}
	for k, q := range sups {
		res, ref := q.Result, want.sup[k.p][k.l][k.x]
		switch {
		case ref < 0:
			if res.Seen {
				t.Errorf("%s: sup %v seen by the engine, never by the referee", what, k)
			}
		case ref > 2*refHorizon:
			if !res.Seen || (!res.Unbounded && res.Max <= dbm.LE(refHorizon)) {
				t.Errorf("%s: sup %v: engine seen=%v unbounded=%v max=%v, referee beyond the horizon", what, k, res.Seen, res.Unbounded, res.Max)
			}
		default:
			// 2c is ≤ c, attained; 2c+1 is < c+1, approached.
			bound := dbm.MakeBound((ref+1)/2, ref%2 == 0)
			if !res.Seen || res.Unbounded || res.Max != bound {
				t.Errorf("%s: sup %v: engine seen=%v unbounded=%v max=%v, referee %v", what, k, res.Seen, res.Unbounded, res.Max, bound)
			}
		}
	}
}
