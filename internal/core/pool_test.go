package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestStorePrunedZoneRecycledWithoutAliasing is the ownership contract test
// for the compact store: the store packs its own copies of admitted zones
// into compact-pool buffers, so (a) a pruned stored zone's buffer really
// returns to the compact pool and is reused for the next admission, and
// (b) the packed copy never aliases the state's full zone — mutating one
// never corrupts the other.
func TestStorePrunedZoneRecycledWithoutAliasing(t *testing.T) {
	st := testStore()
	locs := []ta.LocID{0}
	vars := []int64{0}

	small := mkState(locs, vars, 10)
	held := admit(st, small)
	if held == nil {
		t.Fatal("first zone must be admitted")
	}
	// The store must have packed its own buffer for small.Zone.
	cpool := st.cpool
	gets0, _ := cpool.Stats()
	if gets0 == 0 {
		t.Fatal("admission must draw the packed copy from the compact pool")
	}

	// small is popped and expanded: its record is the payload's only holder.
	st.release(small, held)

	big := mkState(locs, vars, 20)
	if admit(st, big) == nil {
		t.Fatal("covering zone must be admitted")
	}
	// small's packed copy was pruned and released inside Add, and the pack
	// of big's zone (same size class) must have reused its buffer —
	// recycling closes the loop within a single Add.
	if _, reuses := cpool.Stats(); reuses == 0 {
		t.Fatal("pruned stored zone buffer must be reused for the next packed copy")
	}

	// The caller-owned full zones stay untouched by admission, pruning and
	// buffer recycling...
	if big.Zone.Sup(1) != dbm.LE(20) {
		t.Errorf("caller-owned zone mutated: sup=%v, want <=20", big.Zone.Sup(1))
	}
	if small.Zone.Sup(1) != dbm.LE(10) {
		t.Errorf("caller-owned zone mutated: sup=%v, want <=10", small.Zone.Sup(1))
	}
	// ...and scribbling over them cannot reach the store's packed copies:
	// x<=20 still subsumes x<=15, and x<=25 is still new.
	big.Zone.SetInit()
	small.Zone.SetInit()
	if admit(st, mkState(locs, vars, 15)) != nil {
		t.Error("stored zone corrupted: x<=15 no longer subsumed")
	}
	if admit(st, mkState(locs, vars, 25)) == nil {
		t.Error("stored zone corrupted: x<=25 not admitted")
	}
}

// TestAddDoesNotRetainCallerZone verifies the reverse direction of the
// contract: mutating a state's zone after admission must not change what
// the store believes, because the store owns an independent copy.
func TestAddDoesNotRetainCallerZone(t *testing.T) {
	st := testStore()
	locs := []ta.LocID{0}
	vars := []int64{0}

	s := mkState(locs, vars, 10)
	if admit(st, s) == nil {
		t.Fatal("zone must be admitted")
	}
	// Simulate the explorer recycling the state's own zone.
	s.Zone.SetInit()

	if admit(st, mkState(locs, vars, 8)) != nil {
		t.Error("store lost the admitted zone x<=10 after the caller's copy was recycled")
	}
}

// TestSuccessorsSurviveSubsumedSiblingRecycling drives the real engine:
// expanding states whose subsumed successors are recycled must never
// corrupt the admitted ones. The grid exploration revisits many subsumed
// states, so a single aliasing bug makes the stored count or the supremum
// drift (caught against the oracle value <=2 that
// TestQuerySetMatchesDedicatedMethods pins as well).
func TestSuccessorsSurviveSubsumedSiblingRecycling(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stored != r2.Stored || r1.Transitions != r2.Transitions {
		t.Errorf("exploration not deterministic under recycling: %v vs %v", r1.Stats, r2.Stats)
	}
	q := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatal(err)
	}
	sup := q.Result
	if sup.Max != dbm.LE(2) {
		t.Errorf("busy clock sup = %v, want <=2", sup.Max)
	}
}
