package core

import (
	"runtime"
	"testing"

	"repro/internal/ta"
)

// The tests in this file pin that a run's bookkeeping — its store, frontier,
// parent logs and profile rings — is sized to the run and does not outlive
// it, and that what it keeps per state costs the heap nothing.

// buildChain constructs P: L0 → L1 → L2 with one clock and no guards: a
// 3-state sweep that ends in a deadlock.
func buildChain(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("chain")
	n.AddClock("x")
	p := n.AddProcess("P")
	l0 := p.AddLocation("L0", ta.Normal)
	l1 := p.AddLocation("L1", ta.Normal)
	l2 := p.AddLocation("L2", ta.Normal)
	p.AddEdge(ta.Edge{Src: l0, Dst: l1})
	p.AddEdge(ta.Edge{Src: l1, Dst: l2})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestParentLogRefsResolveAcrossSegments records past two block boundaries
// of one log and resolves a ref on each side of every boundary.
func TestParentLogRefsResolveAcrossSegments(t *testing.T) {
	logs := new(parentLogs)
	if len(logs.blocks) != 0 {
		t.Errorf("an empty log holds %d blocks", len(logs.blocks))
	}
	probes := []int{0, 1, logBlockSize - 1, logBlockSize, 2*logBlockSize - 1, 2 * logBlockSize}
	// Scrambled steps take both signs and set high bits.
	step := func(i int) int32 { return int32(uint32(i) * 0x9E3779B1) }
	refs := make([]int64, 2*logBlockSize+1)
	for i := range refs {
		refs[i] = logs.record(int64(i)-1, 3<<32|uint64(i), step(i))
	}
	for _, i := range probes {
		parent, key, st := logs.at(refs[i])
		if parent != int64(i)-1 || key != 3<<32|uint64(i) || st != step(i) {
			t.Errorf("record %d resolves to (%d, %#x, %d)", i, parent, key, st)
		}
	}
	if len(logs.blocks) != 3 {
		t.Errorf("%d records fill %d blocks, want 3", len(refs), len(logs.blocks))
	}
}

// TestFinishedRunKeepsNoRing runs a profiled 3-state sweep at stride 2 (two
// samples) and checks that its ring grew only to what it held, that the
// finished monitor's view no longer references the run's explorer (and with
// it the cell that holds the ring), and that the finalized series is still
// served.
func TestFinishedRunKeepsNoRing(t *testing.T) {
	c, err := NewChecker(buildChain(t))
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	mon.EnableProfile(ProfileConfig{SampleEvery: 2})
	// The sweep runs the predicate on the exploring goroutine,
	// which is also the one that attaches the explorer and drops it.
	var run *explorer
	q := NewReachQuery(func(*State) bool {
		if v := mon.v.Load(); v != nil && v.prof != nil {
			run = v.e.Load()
		}
		return false
	})
	if _, err := c.RunQueries(Options{Monitor: mon}, q); err != nil {
		t.Fatal(err)
	}
	if run == nil {
		t.Fatal("the profiled run exposed no rings while live")
	}
	if v := mon.v.Load(); v.e.Load() != nil {
		t.Error("the finished run's view still holds its explorer")
	}
	ring := &run.cell.ring
	if ring.n != 2 || len(ring.samples) != 2 {
		t.Fatalf("ring took %d samples, holds %d, want 2 and 2", ring.n, len(ring.samples))
	}
	if cap(ring.samples) >= maxSamples {
		t.Errorf("a 2-sample ring has %d slots, want fewer than %d", cap(ring.samples), maxSamples)
	}
	p := mon.Profile()
	if p == nil || len(p.Series) != 1 || len(p.Series[0].Samples) != 2 || p.Series[0].Dropped != 0 {
		t.Fatalf("finished monitor's profile = %+v, want one 2-sample series", p)
	}
	if p.Totals.Stored != 3 {
		t.Errorf("profile totals %+v, want 3 stored", p.Totals)
	}
}

// TestSweepHeapAllocsFlatInStates runs Fischer-5 with a query attached (so the
// parent log is on) to 2,000 and to 40,000 stored states, with the lookahead
// helper engaged from the first expansion and with expansions inline, and
// requires each pair of sweeps' heap allocations to differ by at most 16:
// entries with their keys, the bucket index, records, payloads, waiting nodes
// and log blocks are carved from the sweep's slabs, and so are the States in
// flight, their successor lists and every list that doubles with the sweep
// (dbm.Grow: the log's list of blocks, the compact pool's free lists), so
// only the slab set's own list of slabs may grow, a few times.
// The helper may cost at most helperAllocs allocations more than the inline
// sweep of the same size: its goroutine, its ring, its ctx and pool, and the
// matrix headers of the states it has in flight. Each size keeps the fewest of
// three runs, so an allocation of the runtime's own does not count.
func TestSweepHeapAllocsFlatInStates(t *testing.T) {
	const helperAllocs = 32
	c, err := NewChecker(buildFischer(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(maxStates int, mode lookaheadMode) uint64 {
		fewest := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := c.Explore(Options{MaxStates: maxStates, lookahead: mode}, func(*State) bool { return false })
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stored != maxStates {
				t.Fatalf("the sweep stored %d states, want %d", res.Stored, maxStates)
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	var large [2]uint64
	for i, mode := range lookaheadModes {
		small := allocs(2_000, mode)
		large[i] = allocs(40_000, mode)
		t.Logf("helper %v: %d allocations at 2,000 states, %d at 40,000", mode == lookaheadOn, small, large[i])
		if large[i] > small+16 {
			t.Errorf("helper %v: a sweep of 40,000 states made %d heap allocations, one of 2,000 made %d: want at most 16 more",
				mode == lookaheadOn, large[i], small)
		}
	}
	if on, off := large[0], large[1]; on > off+helperAllocs {
		t.Errorf("a sweep of 40,000 states made %d heap allocations with the lookahead helper and %d inline: want at most %d more",
			on, off, helperAllocs)
	}
}

// TestPooledMatricesFlatInStates runs Fischer-5 to 2,000 and to 40,000
// stored states, with the lookahead helper engaged from the first expansion
// and with expansions inline, and requires the zone pools' live matrices —
// gets minus reuses, the helper's included, at the last profile sample — to
// be the same at both sizes: each expansion recycles the States of the one
// before it in its slot (explorer.expand), so the matrices in use are those
// of the expansions in flight, however long the sweep. A fired or rebuilt
// State left unrecycled keeps its matrix from the pool and shows here as a
// gap that grows with the sweep.
func TestPooledMatricesFlatInStates(t *testing.T) {
	c, err := NewChecker(buildFischer(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	live := func(maxStates int, mode lookaheadMode) int64 {
		mon := &Monitor{}
		mon.EnableProfile(ProfileConfig{SampleEvery: 1})
		if _, err := c.Explore(Options{MaxStates: maxStates, Monitor: mon, lookahead: mode}, nil); err != nil {
			t.Fatal(err)
		}
		samples := mon.Profile().Series[0].Samples
		last := samples[len(samples)-1]
		return last.PoolGets - last.PoolReuses
	}
	for _, mode := range lookaheadModes {
		small, large := live(2_000, mode), live(40_000, mode)
		t.Logf("helper %v: %d live matrices at 2,000 states, %d at 40,000", mode == lookaheadOn, small, large)
		if small != large {
			t.Errorf("helper %v: %d pooled matrices live at 2,000 states and %d at 40,000, want the same",
				mode == lookaheadOn, small, large)
		}
	}
}
