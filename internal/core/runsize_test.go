package core

import (
	"testing"

	"repro/internal/ta"
)

// The tests in this file pin that a run's bookkeeping — its parent logs and
// its profile rings — is sized to the run and does not outlive it.

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
