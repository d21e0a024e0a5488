package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dbm"
)

// lookaheadModes are the two runs every differential test of the lookahead
// helper compares: forced on from the first expansion, and forced off.
var lookaheadModes = [2]lookaheadMode{lookaheadOn, lookaheadOff}

// sameStats reports whether two runs agree on every counter of their Stats.
func sameStats(a, b Stats) bool {
	return a.Stored == b.Stored && a.Live == b.Live && a.Popped == b.Popped &&
		a.Transitions == b.Transitions && a.Deadlocks == b.Deadlocks && a.Truncated == b.Truncated
}

// TestLookaheadStopPaths stops breadth-first sweeps of the huge model — far
// too large to finish — every way a sweep can stop early (a visitor's panic,
// Cancel, Deadline, MaxStates, StateBudget, MaxBytes) while the helper holds
// expansions: it is forced on from the first expansion, and the huge
// model's frontier keeps its ring full. Each stop must give the same error
// and the same partial Stats as the inline run, and must leave the checker
// to a later sweep — one that carves the slabs the stopped sweep's helper
// read, which the race detector and the package's release-time poison
// watch — identical to a fresh checker's.
func TestLookaheadStopPaths(t *testing.T) {
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	probe := Options{MaxStates: 1000}
	want, wantStats := admissions(t, fresh, probe)

	// A visitor that acts once, at the given admission: visitors run on the
	// calling goroutine, in admission order, so it acts at the same point of
	// both runs.
	at := func(k int, act func()) func(*State) bool {
		seen := 0
		return func(*State) bool {
			if seen++; seen == k {
				act()
			}
			return false
		}
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	panicked := func(err error) bool {
		var pe *PanicError
		return errors.As(err, &pe)
	}
	stops := []struct {
		name string
		want func(error) bool
		run  func(m lookaheadMode) (Stats, error)
	}{
		{"Panic", panicked, func(m lookaheadMode) (Stats, error) {
			res, err := c.Explore(Options{lookahead: m}, at(500, func() { panic("visitor crash") }))
			return res.Stats, err
		}},
		{"Cancel", is(ErrCanceled), func(m lookaheadMode) (Stats, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := c.Explore(Options{Context: ctx, lookahead: m}, at(500, cancel))
			return res.Stats, err
		}},
		{"Deadline", is(ErrDeadlineExceeded), func(m lookaheadMode) (Stats, error) {
			// The deadline passes inside the visitor, so the next checkpoint
			// is where both runs stop — unless the sweep was too slow to
			// reach the visitor before it; then again, with more time.
			for wait := 50 * time.Millisecond; ; wait *= 2 {
				deadline, reached := time.Now().Add(wait), false
				ctx, cancel := context.WithDeadline(context.Background(), deadline)
				res, err := c.Explore(Options{Context: ctx, lookahead: m}, at(500, func() {
					reached = true
					time.Sleep(time.Until(deadline) + time.Millisecond)
				}))
				cancel()
				if reached || wait > 10*time.Second {
					return res.Stats, err
				}
			}
		}},
		{"MaxStates", is(nil), func(m lookaheadMode) (Stats, error) {
			res, err := c.Explore(Options{MaxStates: 1000, lookahead: m}, nil)
			return res.Stats, err
		}},
		{"StateBudget", is(ErrStateBudget), func(m lookaheadMode) (Stats, error) {
			res, err := c.Explore(Options{StateBudget: 1000, lookahead: m}, nil)
			return res.Stats, err
		}},
		{"MaxBytes", is(ErrMemoryBudget), func(m lookaheadMode) (Stats, error) {
			// Crossed at the first checkpoint after the helper engages; see
			// TestLookaheadMemoryBudget for budgets crossed later.
			res, err := c.Explore(Options{MaxBytes: 8 << 10, lookahead: m}, nil)
			return res.Stats, err
		}},
	}
	for _, stop := range stops {
		var stats [2]Stats
		for i, m := range lookaheadModes {
			s, err := stop.run(m)
			if !stop.want(err) {
				t.Fatalf("%s, lookahead mode %d: unexpected err = %v", stop.name, m, err)
			}
			if s.Popped <= lookaheadDepth {
				t.Fatalf("%s, lookahead mode %d: stopped after %d expansions, before the helper's ring could fill", stop.name, m, s.Popped)
			}
			stats[i] = s
			got, gotStats := admissions(t, c, probe)
			sameSweep(t, stop.name+", the sweep after", got, want, gotStats, wantStats)
		}
		if !sameStats(stats[0], stats[1]) {
			t.Errorf("%s: partial stats %+v with the helper, %+v without", stop.name, stats[0], stats[1])
		}
	}
}

// TestLookaheadMemoryBudget pins what MaxBytes charges for the helper: the
// matrices its pool holds for the expansions in flight, at most
// lookaheadDepth+1 of them, each the expanded state, its successors and a
// scratch matrix. The store's footprint is the same at every checkpoint of
// both runs, so a budget stops the helper's run no later than the inline
// one, and the same budget raised by that many matrices no earlier.
func TestLookaheadMemoryBudget(t *testing.T) {
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	// A state of the huge model has at most one successor per process.
	inFlight := int64(lookaheadDepth+1) * int64(len(n.Procs)+2) * dbm.ZoneBytes(n.NumClocks())
	popped := func(budget int64, m lookaheadMode) int {
		res, err := c.Explore(Options{MaxBytes: budget, lookahead: m}, nil)
		if !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("budget %d, lookahead mode %d: err = %v, want ErrMemoryBudget", budget, m, err)
		}
		return res.Popped
	}
	for _, budget := range []int64{64 << 10, 256 << 10, 1 << 20} {
		inline := popped(budget, lookaheadOff)
		if lo, hi := popped(budget, lookaheadOn), popped(budget+inFlight, lookaheadOn); lo > inline || hi < inline {
			t.Errorf("budget %d: the helper's run stopped after %d expansions, and %d with %d bytes more; the inline run after %d",
				budget, lo, hi, inFlight, inline)
		}
	}
}

// TestLookaheadStageCounts pins the stage-bound counts a profiled sweep
// reports: with the helper forced on, the caller waits for an expansion at
// least once (at the start, before the helper has expanded anything) and the
// helper polls for a node at least once (at the end, while the caller admits
// the last expansion), and both reach the profile; a sweep that runs inline
// reports zero for both.
func TestLookaheadStageCounts(t *testing.T) {
	grid, _, _, _ := buildGrid(t)
	c, err := NewChecker(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range lookaheadModes {
		mon := &Monitor{}
		mon.EnableProfile(ProfileConfig{})
		if _, err := c.Explore(Options{Monitor: mon, lookahead: mode}, nil); err != nil {
			t.Fatal(err)
		}
		p := mon.Profile()
		if p == nil {
			t.Fatalf("lookahead mode %d: no profile", mode)
		}
		engaged := p.CallerWaits > 0 && p.HelperIdle > 0
		inline := p.CallerWaits == 0 && p.HelperIdle == 0
		if mode == lookaheadOn && !engaged || mode == lookaheadOff && !inline {
			t.Errorf("lookahead mode %d: caller waits %d, helper idle polls %d", mode, p.CallerWaits, p.HelperIdle)
		}
	}
}
