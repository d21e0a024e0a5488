package core

import (
	"os"
	"sync"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestMain runs every test of the package — the canonical-zone sweep, the
// trace-replay oracles, the store oracles, the parallel stress tests — with
// release-time poisoning on: each sweep's slabs are overwritten with a
// sentinel the moment explore hands them back, so a result that still aliases
// slab memory is garbage by the time its test looks at it — or, once a later
// sweep's release has freed the slab, no memory at all: slabs are mappings
// outside -race builds (dbm.Slabs), and the test dies of a fault at the
// address of the alias. Both mean the same bug.
func TestMain(m *testing.M) {
	dbm.PoisonReleased(true)
	os.Exit(m.Run())
}

// poisoned reports whether z reads as released slab memory: the sentinel is a
// huge negative bound, and a live zone's diagonal is (≤, 0).
func poisoned(z *dbm.DBM) bool { return z.At(0, 0) < dbm.LE(-1<<40) }

func assertCanonical(t *testing.T, what string, z *dbm.DBM) {
	t.Helper()
	re := z.Copy()
	if !re.Close() || !z.Eq(re) {
		t.Errorf("%s: zone is not a canonical nonempty zone: %s", what, z)
	}
}

// keptResults is what a caller holds on to after the sweeps of one checker.
type keptResults struct {
	found   *State
	trace   []TraceStep
	witness []TraceStep
	sup     SupResult
}

// gridResults runs a witness search and two supremum sweeps on the grid
// network: a found state with its trace, an unbounded supremum with its
// witness (y is never reset and runs past its horizon), and a bounded one.
func gridResults(t *testing.T, c *Checker, busy ta.LocID, opts Options) keptResults {
	t.Helper()
	res, err := c.Explore(opts, func(s *State) bool { return s.Locs[3] == busy && s.Vars[0] >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Trace) < 2 {
		t.Fatalf("witness search: found=%v, %d trace steps", res.Found, len(res.Trace))
	}
	y, ok := c.net.ClockByName("y")
	if !ok {
		t.Fatal("no clock y")
	}
	unbQ := NewSupClockQuery(y.ID, func(*State) bool { return true })
	if _, err := c.RunQueries(opts, unbQ); err != nil {
		t.Fatal(err)
	}
	unb := unbQ.Result
	if !unb.Unbounded || len(unb.Witness) < 2 {
		t.Fatalf("sup y: unbounded=%v, %d witness steps", unb.Unbounded, len(unb.Witness))
	}
	sx, ok := c.net.ClockByName("sx")
	if !ok {
		t.Fatal("no clock sx")
	}
	supQ := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	if _, err := c.RunQueries(opts, supQ); err != nil {
		t.Fatal(err)
	}
	sup := supQ.Result
	return keptResults{found: res.FoundState, trace: res.Trace, witness: unb.Witness, sup: sup}
}

// check validates the results against the engine itself — they were already
// handed over after their sweep's release, so comparing against a copy taken
// now would prove nothing on its own.
func (k keptResults) check(t *testing.T, c *Checker, busy ta.LocID) {
	t.Helper()
	assertCanonical(t, "FoundState", k.found.Zone)
	if k.found.Locs[3] != busy || k.found.Vars[0] < 2 {
		t.Errorf("FoundState does not satisfy the predicate: %s", k.found.Format(c.net))
	}
	if last := k.trace[len(k.trace)-1].State; !sameState(last, k.found) {
		t.Errorf("trace ends in %s, not in FoundState %s", last.Format(c.net), k.found.Format(c.net))
	}
	assertTraceValid(t, c, k.trace)
	assertTraceValid(t, c, k.witness)
	if k.sup.Max != dbm.LE(2) || !k.sup.Seen || k.sup.Unbounded {
		t.Errorf("sup sx @ busy = %v (seen=%v unbounded=%v), want <=2", k.sup.Max, k.sup.Seen, k.sup.Unbounded)
	}
}

func cloneTrace(tr []TraceStep) []*State {
	out := make([]*State, len(tr))
	for i, st := range tr {
		out[i] = cloneState(st.State)
	}
	return out
}

// TestResultsSurviveLaterSweeps is the ownership test for recycled slabs:
// what one sweep returns — FoundState, witness TraceStep zones, SupResult —
// must not change when later sweeps of other dimensions, with and without
// the lookahead helper, take over the memory the first one ran in.
func TestResultsSurviveLaterSweeps(t *testing.T) {
	grid, _, _, busy := buildGrid(t)
	c, err := NewChecker(grid)
	if err != nil {
		t.Fatal(err)
	}
	later := []struct {
		net  *ta.Network
		opts Options
	}{
		{testRadioNet(t), Options{}},
		{testDiagNet(t), Options{lookahead: lookaheadOn}},
		{grid, Options{}},
		{grid, Options{Order: DFS}},
	}
	for _, m := range lookaheadModes {
		opts := Options{lookahead: m}
		k := gridResults(t, c, busy, opts)
		k.check(t, c, busy)
		found, trace, witness, sup := cloneState(k.found), cloneTrace(k.trace), cloneTrace(k.witness), k.sup

		for _, l := range later {
			lc, err := NewChecker(l.net)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lc.Explore(l.opts, nil); err != nil {
				t.Fatal(err)
			}
		}

		k.check(t, c, busy)
		if !sameState(k.found, found) {
			t.Errorf("lookahead=%d: FoundState changed under later sweeps", m)
		}
		for i := range trace {
			if !sameState(k.trace[i].State, trace[i]) {
				t.Errorf("lookahead=%d: trace step %d changed under later sweeps", m, i)
			}
		}
		for i := range witness {
			if !sameState(k.witness[i].State, witness[i]) {
				t.Errorf("lookahead=%d: witness step %d changed under later sweeps", m, i)
			}
		}
		if k.sup.Max != sup.Max || k.sup.Seen != sup.Seen || k.sup.Unbounded != sup.Unbounded {
			t.Errorf("lookahead=%d: SupResult changed under later sweeps", m)
		}
	}
}

// TestPoisonCatchesRetainedZone introduces the alias the ownership rule
// forbids — a visitor that keeps admitted states' zones past its sweep — and
// requires the poison to expose it: this is what the tests above would see if
// a result aliased slab memory. Only the one matrix that never came from a
// slab (the initial state's, plain heap) may read as a zone afterwards.
//
// Reading the retained zones at all is legal only because the second sweep
// is as large as the first: it runs the same query set, so it carves as much
// — zones, store records and parent log alike — and takes over every slab the
// first released, so all of them are still mapped (and poisoned again) when
// it releases in turn. After a smaller sweep (a query-less one logs nothing)
// the slabs it left in the cache would have been unmapped by its release, and
// the loop below would fault instead of finding poison — which is what a
// retained zone does in production, where nothing poisons. There is
// deliberately no test that does that.
func TestPoisonCatchesRetainedZone(t *testing.T) {
	grid, _, _, _ := buildGrid(t)
	c, err := NewChecker(grid)
	if err != nil {
		t.Fatal(err)
	}
	retained := map[*dbm.DBM]bool{}
	if _, err := c.Explore(Options{}, func(s *State) bool {
		retained[s.Zone] = true
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explore(Options{}, func(*State) bool { return false }); err != nil {
		t.Fatal(err)
	}
	intact := 0
	for z := range retained {
		if !poisoned(z) {
			intact++
		}
	}
	if intact == len(retained) || intact > 1 {
		t.Errorf("%d of %d zones retained past their sweep still read as zones; want at most the heap one",
			intact, len(retained))
	}
}

// TestSlabsRecycleAcrossConcurrentSweeps is the -race stress for the slab
// set and the process-wide cache: sweeps of different dimension run back to
// back on several goroutines at once (as taserved jobs do), with the
// lookahead helper forced on at every other one, so the
// loops' and helpers' pools and the stores' compact pools carve from one set
// concurrently while other sweeps release theirs. Every sweep must reproduce
// the oracle of its network exactly, and every witness must replay once all
// of them are done.
func TestSlabsRecycleAcrossConcurrentSweeps(t *testing.T) {
	grid, _, _, busy := buildGrid(t)
	nets := []*ta.Network{grid, testRadioNet(t), testDiagNet(t)}
	want := make([]int, len(nets))
	for i, n := range nets {
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stored
	}
	rounds := 12
	if testing.Short() {
		rounds = 8
	}
	// Witnesses are replayed on the test's own goroutine after the barrier
	// (assertTraceValid may stop the test).
	type witness struct {
		c     *Checker
		found *State
		trace []TraceStep
	}
	var witnesses [3][]witness
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(nets)
				m := lookaheadModes[(g+r)%2]
				c, err := NewChecker(nets[i])
				if err != nil {
					t.Error(err)
					return
				}
				res, err := c.Explore(Options{Seed: int64(r), lookahead: m}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stored != want[i] {
					t.Errorf("goroutine %d round %d: %s with lookahead mode %d stored %d, want %d",
						g, r, nets[i].Name, m, res.Stored, want[i])
				}
				if i != 0 {
					continue
				}
				w, err := c.Explore(Options{lookahead: m}, func(s *State) bool { return s.Locs[3] == busy })
				if err != nil || !w.Found {
					t.Errorf("goroutine %d round %d: witness search on the grid: found=%v, err=%v", g, r, w.Found, err)
					return
				}
				witnesses[g] = append(witnesses[g], witness{c, w.FoundState, w.Trace})
			}
		}(g)
	}
	wg.Wait()
	for _, ws := range witnesses {
		for _, w := range ws {
			assertCanonical(t, "FoundState", w.found.Zone)
			assertTraceValid(t, w.c, w.trace)
		}
	}
}
