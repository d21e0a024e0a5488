package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file tests the lifetime of a waiting state's zone: between admission
// and pop a state holds no matrix, only a reference to the payload the store
// packed of it, and the store may prune that payload's record in the
// meantime (see "Zone ownership" in store.go).

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

// holderSpy counts the releases that found their payload orphaned. Its mutex
// serializes add and release, so reading the mark outside the inner store's
// own guard is sound with racing workers too.
type holderSpy struct {
	passedSet
	mu      sync.Mutex
	orphans int
}

func (h *holderSpy) add(s *State, sc *closeScratch) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.passedSet.add(s, sc)
}

func (h *holderSpy) release(s *State) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.packed.Holder() == orphaned {
		h.orphans++
	}
	h.passedSet.release(s)
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
// expands from its own zone — and the orphan path must actually have run.
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
		ref := newRefStore(&c.eng.bounds)
		refOpts.passed = ref
		want, wantStats := admissions(t, c, refOpts)
		// Stored counts admissions, Live what the prunes left of them.
		if ref.pruned == 0 || wantStats.Stored-wantStats.Live != ref.pruned {
			t.Errorf("%s: Stored %d - Live %d, want the reference's %d prunes (> 0)",
				order, wantStats.Stored, wantStats.Live, ref.pruned)
		}

		got, gotStats := admissions(t, c, opts)
		sameSweep(t, order.String()+", slab store", got, want, gotStats, wantStats)

		st := newStore(1, nil, &c.eng.bounds)
		spy := &holderSpy{passedSet: st}
		spyOpts := opts
		spyOpts.passed = spy
		got, gotStats = admissions(t, c, spyOpts)
		sameSweep(t, order.String()+", heap store", got, want, gotStats, wantStats)
		if spy.orphans == 0 {
			t.Errorf("%s: no state was popped after its record was pruned; the model no longer reaches the path under test", order)
		}
		checkStoreLayout(t, st)
		// Every buffer the pool ever carved is a live record's or back in
		// the pool: no orphan was left out, no held buffer was recycled.
		checkPoolDisjoint(t, st, got[0].Zone)
		for _, e := range entriesOf(st.shards.at(0).buckets) {
			for _, z := range e.liveZones() {
				if z.Holder() != 0 {
					t.Errorf("%s: a stored payload is still marked %d after every state was popped", order, z.Holder())
				}
			}
		}
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

// TestWaitingStatesParallel is the Workers > 1 twin: the shadow store checks
// every admission decision against the reference while four workers decode
// payloads lock-free and release them under the shard lock (-race covers the
// mark byte written beside a payload being read), and the reductions must
// equal the sequential ones.
func TestWaitingStatesParallel(t *testing.T) {
	n := buildWidening(t, 12)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := FindClock(n, "x")
	if err != nil {
		t.Fatal(err)
	}
	atEnd := func(s *State) bool { return s.Vars[0] == 12 }
	seq, err := c.SupClock(x.ID, atEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 64} {
		sh := &shadowStore{fast: newStore(shards, nil, &c.eng.bounds), ref: newRefStore(&c.eng.bounds)}
		par, err := c.SupClock(x.ID, atEnd, Options{Workers: 4, passed: sh})
		if err != nil {
			t.Fatal(err)
		}
		if d := sh.disagreements.Load(); d != 0 {
			t.Errorf("%d shards: %d admission decisions diverged from the reference", shards, d)
		}
		if par.Max != seq.Max || par.Seen != seq.Seen || par.Unbounded != seq.Unbounded {
			t.Errorf("%d shards: sup (%v,%v,%v), sequential (%v,%v,%v)", shards,
				par.Max, par.Seen, par.Unbounded, seq.Max, seq.Seen, seq.Unbounded)
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
		want, err := c.CheckDeadlockFree(Options{Order: order, passed: newRefStore(&c.eng.bounds)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.CheckDeadlockFree(Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if got.Free || want.Free {
			t.Fatalf("%s: the widening model must deadlock (free: %v, reference %v)", order, got.Free, want.Free)
		}
		if got.Stored != want.Stored || got.Popped != want.Popped || got.Transitions != want.Transitions {
			t.Errorf("%s: stats %+v, reference %+v", order, got.Stats, want.Stats)
		}
		sameTrace(t, order.String()+" deadlock witness", got.Witness, want.Witness)
		assertTraceValid(t, c, got.Witness)
	}
	par, err := c.CheckDeadlockFree(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Free {
		t.Fatal("parallel sweep missed the deadlock")
	}
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
			cancel := make(chan struct{})
			admitted := 0
			_, err := c.Explore(Options{Cancel: cancel}, func(*State) bool {
				if admitted++; admitted == 40 {
					close(cancel)
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
	st := testStore(1)
	locs, vars := []ta.LocID{0}, []int64{0}
	low := mkState(locs, vars, 10)
	high := &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}
	high.Zone.Constrain(0, 1, dbm.LE(-20))
	var stale []dbm.Compact
	for _, s := range []*State{low, high} {
		if !admit(st, s) {
			t.Fatal("incomparable zones must both be admitted")
		}
		stale = append(stale, s.packed)
		st.release(s)
	}
	if !admit(st, &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}) || st.size() != 1 {
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
