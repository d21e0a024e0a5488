package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file tests the lifetime of a waiting state: between admission and pop
// it is a waiting node, which holds no matrix and no discrete vectors — only
// the store entry that admitted it and a reference to the payload the store
// packed of its zone — and the store may prune that payload's record in the
// meantime (see "Frontier" in explore.go and "Zone ownership" in store.go).

// buildWidening constructs a model in which every level of the zone graph
// prunes stored zones whose states still wait. P steps through one location;
// each step can be taken early (x <= 2) or late (x <= 5), both reset y, and
// the successors are enumerated in that order: the early one is admitted and
// waits, the late one — the same discrete state, a strictly larger zone —
// is admitted right after it and prunes its record. After `steps` steps
// nothing is enabled and the invariant stops time: every path ends in a
// deadlock, and the first one a breadth-first sweep pops is a state whose
// record was pruned while it waited. A free-running generator beside P
// multiplies the interleavings.
func buildWidening(t *testing.T, steps int64) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("widening")
	x := n.AddClock("x")
	y := n.AddClock("y")
	g := n.AddClock("g")
	step := n.AddVar("step", 0, 0, steps)
	p := n.AddProcess("P")
	l := p.AddLocation("l", ta.Normal, ta.CLE(x, 10))
	for _, late := range []int64{2, 5} {
		p.AddEdge(ta.Edge{Src: l, Dst: l,
			Guard:      ta.VarCmp(step, ta.Lt, steps),
			ClockGuard: []ta.Constraint{ta.CLE(x, late)},
			Resets:     []ta.Reset{{Clock: y.ID, Value: 0}},
			Update:     ta.Inc(step, 1)})
	}
	gen := n.AddProcess("GEN")
	tick := gen.AddLocation("tick", ta.Normal, ta.CLE(g, 3))
	tock := gen.AddLocation("tock", ta.Normal, ta.CLE(g, 3))
	gen.AddEdge(ta.Edge{Src: tick, Dst: tock, Guard: ta.VarCmp(step, ta.Lt, steps),
		ClockGuard: ta.CEq(g, 3), Resets: []ta.Reset{{Clock: g.ID, Value: 0}}})
	gen.AddEdge(ta.Edge{Src: tock, Dst: tick, Guard: ta.VarCmp(step, ta.Lt, steps),
		ClockGuard: []ta.Constraint{ta.CGE(g, 1)}, Resets: []ta.Reset{{Clock: g.ID, Value: 0}}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// holderSpy follows every waiting state across its wait. At admission it
// records the state's discrete part against the payload add handed out — a
// buffer the store cannot recycle while the node holds it, so its address
// names the node until the release. At release, which the worker calls right
// after the pop rebuilt the state from the node, the rebuilt Locs and Vars
// must equal the recorded ones. It counts the pops, the ones
// that diverged, and the ones that found their payload orphaned. Its mutex
// serializes add and release, so reading the mark outside the inner store's
// own guard is sound with racing workers too.
type holderSpy struct {
	passedSet
	mu       sync.Mutex
	admitted map[*byte]admission
	pops     int
	diverged int
	orphans  int
}

// admission is what a state was when the store admitted it.
type admission struct {
	locs []ta.LocID
	vars []int64
}

func newHolderSpy(inner passedSet) *holderSpy {
	return &holderSpy{passedSet: inner, admitted: map[*byte]admission{}}
}

func (h *holderSpy) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	h.mu.Lock()
	defer h.mu.Unlock()
	entry, payload := h.passedSet.add(s, sc)
	if entry != nil {
		h.admitted[&payload[0]] = admission{slices.Clone(s.Locs), slices.Clone(s.Vars)}
	}
	return entry, payload
}

func (h *holderSpy) release(s *State, c dbm.Compact) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pops++
	a, ok := h.admitted[&c[0]]
	delete(h.admitted, &c[0])
	if !ok || !slices.Equal(s.Locs, a.locs) || !slices.Equal(s.Vars, a.vars) {
		h.diverged++
	}
	if c.Holder() == orphaned {
		h.orphans++
	}
	h.passedSet.release(s, c)
}

// checkPops requires every pop to have rebuilt the state it admitted, and the
// orphan path to have run.
func (h *holderSpy) checkPops(t *testing.T, what string, popped int) {
	t.Helper()
	if h.pops != popped {
		t.Errorf("%s: %d releases for %d pops", what, h.pops, popped)
	}
	if h.diverged != 0 {
		t.Errorf("%s: %d of %d popped states were not rebuilt as admitted", what, h.diverged, h.pops)
	}
	if h.orphans == 0 {
		t.Errorf("%s: no state was popped after its record was pruned; the model no longer reaches the path under test", what)
	}
}

// admissions runs a plain sweep and returns a copy of every admitted state in
// admission order.
func admissions(t *testing.T, c *Checker, opts Options) ([]*State, Stats) {
	t.Helper()
	var seen []*State
	res, err := c.Explore(opts, func(s *State) bool {
		seen = append(seen, cloneState(s))
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen, res.Stats
}

func sameSweep(t *testing.T, what string, got, want []*State, gs, ws Stats) {
	t.Helper()
	if gs.Stored != ws.Stored || gs.Live != ws.Live || gs.Popped != ws.Popped ||
		gs.Transitions != ws.Transitions || gs.Deadlocks != ws.Deadlocks {
		t.Errorf("%s: stats %+v, reference %+v", what, gs, ws)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d admissions, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameState(got[i], want[i]) {
			t.Fatalf("%s: admission %d diverges from the reference sweep", what, i)
		}
	}
}

// TestWaitingStatesOutliveTheirRecords sweeps the widening model in every
// sequential order with the slab-backed store, with a heap-backed store under
// a holderSpy, and with the full-DBM reference: all three must admit the same
// states in the same order — a state popped after its record was pruned
// expands from its own zone — every pop must rebuild the state that was
// admitted, and the orphan path must actually have run.
// When the sweep is over every state was popped: each live payload is back
// to its record alone, and the compact pool's books balance (gets served
// from fresh memory = live payloads + free buffers).
func TestWaitingStatesOutliveTheirRecords(t *testing.T) {
	c, err := NewChecker(buildWidening(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{BFS, DFS, RDFS} {
		opts := Options{Order: order, Seed: 7}
		refOpts := opts
		ref := newRefStore(&c.eng.bounds, &c.eng.keys)
		refOpts.passed = ref
		want, wantStats := admissions(t, c, refOpts)
		// Stored counts admissions, Live what the prunes left of them.
		if ref.pruned == 0 || wantStats.Stored-wantStats.Live != ref.pruned {
			t.Errorf("%s: Stored %d - Live %d, want the reference's %d prunes (> 0)",
				order, wantStats.Stored, wantStats.Live, ref.pruned)
		}

		got, gotStats := admissions(t, c, opts)
		sameSweep(t, order.String()+", slab store", got, want, gotStats, wantStats)

		st := newStore(nil, &c.eng.bounds, &c.eng.keys)
		spy := newHolderSpy(st)
		spyOpts := opts
		spyOpts.passed = spy
		got, gotStats = admissions(t, c, spyOpts)
		sameSweep(t, order.String()+", heap store", got, want, gotStats, wantStats)
		spy.checkPops(t, order.String(), gotStats.Popped)
		checkStoreLayout(t, st)
		// Every buffer the pool ever carved is a live record's or back in
		// the pool: no orphan was left out, no held buffer was recycled.
		checkPoolDisjoint(t, st, got[0].Zone)
		for _, e := range entriesOf(st) {
			for _, z := range e.liveZones() {
				if z.Holder() != 0 {
					t.Errorf("%s: a stored payload is still marked %d after every state was popped", order, z.Holder())
				}
			}
		}
	}
}

// collectingStore collects, and then scribbles over fresh buffers of the
// payload's size, before every admission it passes on: a payload or entry
// that only waiting nodes — carved frontier memory the collector does not
// scan — still referenced is freed by then and likely reused, so a later pop
// decodes garbage. It keeps nothing of what it passes on.
type collectingStore struct {
	passedSet
	junk [][]byte
}

func (cs *collectingStore) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	runtime.GC()
	for i := range cs.junk {
		cs.junk[i] = bytes.Repeat([]byte{0xA5}, 64+i%4*64)
	}
	return cs.passedSet.add(s, sc)
}

// TestTestStoresKeepWhatTheyHandOut sweeps the widening model — whose pops
// meet payloads pruned while their states waited — through a standalone
// heap store and through the reference store, each under a collectingStore:
// both must keep every entry and payload they hand a waiting node alive
// until the sweep is over, so both sweeps match the slab store's.
func TestTestStoresKeepWhatTheyHandOut(t *testing.T) {
	c, err := NewChecker(buildWidening(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := admissions(t, c, Options{})
	for name, st := range map[string]passedSet{
		"heap store":      newStore(nil, &c.eng.bounds, &c.eng.keys),
		"reference store": newRefStore(&c.eng.bounds, &c.eng.keys),
	} {
		got, gotStats := admissions(t, c, Options{passed: &collectingStore{passedSet: st, junk: make([][]byte, 256)}})
		sameSweep(t, name, got, want, gotStats, wantStats)
	}
}

// TestLiveEqualsStoredWithoutPrunes: Fischer's protocol prunes nothing, so
// every admission is still stored when the sweep ends.
func TestLiveEqualsStoredWithoutPrunes(t *testing.T) {
	c, err := NewChecker(buildFischer(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != res.Stored || res.Stored == 0 {
		t.Errorf("Live = %d, Stored = %d: want them equal", res.Live, res.Stored)
	}
}

// TestWaitingStatesParallel is the two-goroutine twin: the shadow store
// checks every admission decision against the reference while the lookahead
// helper, forced on from the first expansion, rebuilds nodes — the entry's
// key decoded, the payload decoded — beside the admitting goroutine, which
// prunes, orphans and releases them (-race covers the mark byte written
// beside a payload being read, and the entry's other fields written beside
// the key being decoded). A holderSpy around the shadow requires every pop
// to rebuild the state that was admitted, orphans included, and the
// reduction and the Stats must equal the inline run's.
func TestWaitingStatesParallel(t *testing.T) {
	n := buildWidening(t, 12)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := n.ClockByName("x")
	if !ok {
		t.Fatal("no clock x")
	}
	atEnd := func(s *State) bool { return s.Vars[0] == 12 }
	seqQ := NewSupClockQuery(x.ID, atEnd)
	if _, err := c.RunQueries(Options{}, seqQ); err != nil {
		t.Fatal(err)
	}
	seq := seqQ.Result
	sh := &shadowStore{fast: newStore(nil, &c.eng.bounds, &c.eng.keys), ref: newRefStore(&c.eng.bounds, &c.eng.keys)}
	spy := newHolderSpy(sh)
	parQ := NewSupClockQuery(x.ID, atEnd)
	if _, err := c.RunQueries(Options{passed: spy, lookahead: lookaheadOn}, parQ); err != nil {
		t.Fatal(err)
	}
	par := parQ.Result
	what := "lookahead"
	spy.checkPops(t, what, par.Popped)
	if d := sh.disagreements.Load(); d != 0 {
		t.Errorf("%s: %d admission decisions diverged from the reference", what, d)
	}
	if par.Max != seq.Max || par.Seen != seq.Seen || par.Unbounded != seq.Unbounded || !sameStats(par.Stats, seq.Stats) {
		t.Errorf("%s: sup (%v,%v,%v) %v, inline (%v,%v,%v) %v", what,
			par.Max, par.Seen, par.Unbounded, par.Stats, seq.Max, seq.Seen, seq.Unbounded, seq.Stats)
	}
}

// buildIndependent constructs procs processes that never interact: each
// counts its own variable from 0 to steps, one step per transition, and owns
// one clock that nothing constrains. Every state has at most procs
// successors, while a sweep's frontier grows with steps: a breadth-first
// level of the (steps+1)^procs grid, or the untaken siblings along a
// depth-first path.
func buildIndependent(t *testing.T, procs int, steps int64) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("independent")
	for i := 0; i < procs; i++ {
		n.AddClock(fmt.Sprintf("x%d", i))
		c := n.AddVar(fmt.Sprintf("c%d", i), 0, 0, steps)
		p := n.AddProcess(fmt.Sprintf("P%d", i))
		l := p.AddLocation("l", ta.Normal)
		p.AddEdge(ta.Edge{Src: l, Dst: l, Guard: ta.VarCmp(c, ta.Lt, steps), Update: ta.Inc(c, 1)})
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// stateSpy records every State a sweep hands the store — each fired
// successor at add, the initial state included, and each state rebuilt from
// a popped node at release — which is every State the sweep uses,
// and the widest frontier: admissions not yet released.
type stateSpy struct {
	passedSet
	mu              sync.Mutex
	seen            map[*State]bool
	waiting, widest int
}

func (sp *stateSpy) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.seen[s] = true
	entry, payload := sp.passedSet.add(s, sc)
	if entry != nil {
		sp.waiting++
		sp.widest = max(sp.widest, sp.waiting)
	}
	return entry, payload
}

func (sp *stateSpy) release(s *State, c dbm.Compact) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.seen[s] = true
	sp.waiting--
	sp.passedSet.release(s, c)
}

// TestSweepStatesBoundedByExpansion pins that a sweep allocates States in
// proportion to the expansions it has in flight, not to its widest frontier:
// an expansion holds the expanded state and that state's fired successors,
// and every other state waits as a node. On a model whose frontier is far
// wider than its branching, breadth- and depth-first, at Workers 1 and 4,
// the distinct States the store ever sees must stay within what the
// expansions in flight can hold at once — per expansion the expanded state
// plus one per process, plus the initial state. An inline sweep has one
// expansion in flight, and one with its lookahead helper engaged (forced on
// from the first expansion here) one more per node the helper may expand
// ahead of the admitting caller. Engaged by the auto rule when GOMAXPROCS
// allows, the helper starts with a ctx of its own, and the States of the
// inline expansions before it stay with the caller's: one expansion more.
func TestSweepStatesBoundedByExpansion(t *testing.T) {
	const procs, steps = 2, 127
	c, err := NewChecker(buildIndependent(t, procs, steps))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		order     Order
		workers   int
		lookahead lookaheadMode
		inFlight  int
	}{
		{BFS, 1, lookaheadOff, 1},
		{BFS, 1, lookaheadOn, 1 + lookaheadDepth},
		{BFS, 4, lookaheadAuto, 2 + lookaheadDepth},
		{DFS, 1, lookaheadAuto, 1},
		{DFS, 4, lookaheadAuto, 1},
	}
	for _, r := range runs {
		what := fmt.Sprintf("%s, %d workers, lookahead mode %d", r.order, r.workers, r.lookahead)
		spy := &stateSpy{passedSet: newStore(nil, &c.eng.bounds, &c.eng.keys), seen: map[*State]bool{}}
		res, err := c.Explore(Options{Order: r.order, Workers: r.workers, passed: spy, lookahead: r.lookahead}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stored < (steps+1)*(steps+1) {
			t.Fatalf("%s: %d stored, want at least the %d grid points", what, res.Stored, (steps+1)*(steps+1))
		}
		bound := r.inFlight*(procs+1) + 1
		if spy.widest < 4*bound {
			t.Fatalf("%s: widest frontier %d, want at least 4 x %d: the model no longer tests the bound", what, spy.widest, bound)
		}
		if len(spy.seen) > bound {
			t.Errorf("%s: the sweep used %d States, want at most %d (widest frontier %d)", what, len(spy.seen), bound, spy.widest)
		}
	}
}

// TestDeadlockObservedOnDecodedZone pins the one observer that runs at pop:
// onDeadlock sees the zone decoded from the payload, and in the widening
// model the first deadlock a breadth-first sweep pops is a state whose
// record was pruned while it waited. Witness and found state must equal the
// reference store's, and stay valid after the sweep's memory is gone.
func TestDeadlockObservedOnDecodedZone(t *testing.T) {
	c, err := NewChecker(buildWidening(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{BFS, DFS} {
		wantQ := NewDeadlockQuery()
		if _, err := c.RunQueries(Options{Order: order, passed: newRefStore(&c.eng.bounds, &c.eng.keys)}, wantQ); err != nil {
			t.Fatal(err)
		}
		want := wantQ.Result
		gotQ := NewDeadlockQuery()
		if _, err := c.RunQueries(Options{Order: order}, gotQ); err != nil {
			t.Fatal(err)
		}
		got := gotQ.Result
		if got.Free || want.Free {
			t.Fatalf("%s: the widening model must deadlock (free: %v, reference %v)", order, got.Free, want.Free)
		}
		if got.Stored != want.Stored || got.Popped != want.Popped || got.Transitions != want.Transitions {
			t.Errorf("%s: stats %+v, reference %+v", order, got.Stats, want.Stats)
		}
		sameTrace(t, order.String()+" deadlock witness", got.Witness, want.Witness)
		assertTraceValid(t, c, got.Witness)
	}
	parQ := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{Workers: 4}, parQ); err != nil {
		t.Fatal(err)
	}
	par := parQ.Result
	if par.Free {
		t.Fatal("Workers: 4 sweep missed the deadlock")
	}
	seqQ := NewDeadlockQuery()
	if _, err := c.RunQueries(Options{}, seqQ); err != nil {
		t.Fatal(err)
	}
	if !sameStats(par.Stats, seqQ.Result.Stats) {
		t.Errorf("Workers: 4 stats %v, Workers: 1 %v", par.Stats, seqQ.Result.Stats)
	}
	sameTrace(t, "Workers: 4 deadlock witness", par.Witness, seqQ.Result.Witness)
	assertTraceValid(t, c, par.Witness)
}

// TestStopWithStatesWaitingLeavesCheckerReusable stops sweeps of the widening
// model early — truncation, cancel, memory budget — while states wait on
// payloads, some of them orphaned, that nothing will ever release. The same
// checker must then produce a full sweep identical, state for state, to a
// fresh checker's (TestCancelLeavesEngineReusable's shape).
func TestStopWithStatesWaitingLeavesCheckerReusable(t *testing.T) {
	n := buildWidening(t, 6)
	fresh, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := admissions(t, fresh, Options{})

	stops := []struct {
		name string
		run  func(c *Checker) error
	}{
		{"MaxStates", func(c *Checker) error {
			res, err := c.Explore(Options{MaxStates: 40}, nil)
			if err == nil && !res.Truncated {
				return errors.New("sweep was not truncated")
			}
			return err
		}},
		{"Cancel", func(c *Checker) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			admitted := 0
			_, err := c.Explore(Options{Context: ctx}, func(*State) bool {
				if admitted++; admitted == 40 {
					cancel()
				}
				return false
			})
			if !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("err = %v, want ErrCanceled", err)
			}
			return nil
		}},
		{"MaxBytes", func(c *Checker) error {
			_, err := c.Explore(Options{MaxBytes: 40 * dbm.ZoneBytes(n.NumClocks())}, nil)
			if !errors.Is(err, ErrMemoryBudget) {
				return fmt.Errorf("err = %v, want ErrMemoryBudget", err)
			}
			return nil
		}},
	}
	for _, stop := range stops {
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := stop.run(c); err != nil {
			t.Fatalf("%s: %v", stop.name, err)
		}
		got, gotStats := admissions(t, c, Options{})
		sameSweep(t, "after "+stop.name, got, want, gotStats, wantStats)
	}
}

// TestPoisonCatchesRecycledPayload introduces the alias the holder mark
// exists to prevent — a reference to a payload kept past its release, as a
// waiting state's would be if prune recycled it anyway — and requires the
// package's poisoning (TestMain) to expose it: of two buffers pruned by one
// admission the new payload reuses one, and the other must read as garbage,
// not as the zone it held.
func TestPoisonCatchesRecycledPayload(t *testing.T) {
	st := testStore()
	locs, vars := []ta.LocID{0}, []int64{0}
	low := mkState(locs, vars, 10)
	high := &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}
	high.Zone.Constrain(0, 1, dbm.LE(-20))
	var stale []dbm.Compact
	for _, s := range []*State{low, high} {
		c := admit(st, s)
		if c == nil {
			t.Fatal("incomparable zones must both be admitted")
		}
		stale = append(stale, c)
		st.release(s, c)
	}
	if admit(st, &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}) == nil || st.size() != 1 {
		t.Fatal("the universe must prune both stored zones")
	}
	garbage := 0
	for _, c := range stale {
		if w := c.Width(); w != 2 && w != 4 && w != 8 {
			garbage++
		}
	}
	if garbage != 1 {
		t.Errorf("%d of 2 recycled payloads read as garbage, want 1 (the other was reused by the admission)", garbage)
	}
}
