package core

import (
	"slices"
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

// segSizes lists the record capacity of each segment of worker w's log.
func segSizes(l *parentLogs, w int) []int {
	var sizes []int
	for k, wl := 0, l.logs.at(w); k < wl.segs; k++ {
		sizes = append(sizes, len(wl.seg(k).steps))
	}
	return sizes
}

// TestParentLogRefsResolveAcrossSegments records past the first seven
// segment boundaries on two workers of one log and resolves a ref on each
// side of every boundary.
func TestParentLogRefsResolveAcrossSegments(t *testing.T) {
	logs := newParentLogs(4)
	probes := []int{0, 31, 32, 95, 96, 991, 992, 2015, 2016}
	// Scrambled steps take both signs and set high bits.
	step := func(i int) int32 { return int32(uint32(i) * 0x9E3779B1) }
	for _, w := range []int{0, 3} {
		refs := make([]int64, 2017)
		for i := range refs {
			refs[i] = logs.record(w, int64(i)-1, uint64(w)<<32|uint64(i), step(i))
		}
		for _, i := range probes {
			parent, key, st := logs.at(refs[i])
			if parent != int64(i)-1 || key != uint64(w)<<32|uint64(i) || st != step(i) {
				t.Errorf("worker %d record %d resolves to (%d, %#x, %d)", w, i, parent, key, st)
			}
		}
		want := []int{32, 64, 128, 256, 512, 1024, 1024}
		if sizes := segSizes(logs, w); !slices.Equal(sizes, want) {
			t.Errorf("worker %d segment sizes %v, want %v", w, sizes, want)
		}
	}
	for _, w := range []int{1, 2} {
		if sizes := segSizes(logs, w); len(sizes) != 0 {
			t.Errorf("worker %d never recorded but holds segments %v", w, sizes)
		}
	}
}

// logProbe is a never-completing reach query that keeps the run's parent
// logs, which the engine hands every query at finish.
type logProbe struct {
	*ReachQuery
	logs *parentLogs
}

func (p *logProbe) finish(c *Checker, logs *parentLogs, stats Stats) error {
	p.logs = logs
	return p.ReachQuery.finish(c, logs, stats)
}

// TestSmallSweepLogsIntoSmallSegment pins that a 3-state sweep's parent log
// is one 32-record segment, not a big sweep's 1024-record block.
func TestSmallSweepLogsIntoSmallSegment(t *testing.T) {
	c, err := NewChecker(buildChain(t))
	if err != nil {
		t.Fatal(err)
	}
	probe := &logProbe{ReachQuery: NewReachQuery(func(*State) bool { return false })}
	stats, err := c.RunQueries(Options{}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != 3 {
		t.Fatalf("chain stored %d states, want 3", stats.Stored)
	}
	if probe.logs == nil {
		t.Fatal("a query run kept no parent logs")
	}
	if sizes := segSizes(probe.logs, 0); !slices.Equal(sizes, []int{32}) {
		t.Errorf("3-state sweep logs into segments %v, want one of 32 slots", sizes)
	}
}

// TestFinishedRunKeepsNoRing runs a profiled 3-state sweep at stride 2 (two
// samples) and checks that its ring grew only to what it held, that the
// finished monitor's view no longer references the run's explorer (and with
// it the cells that hold the rings), and that the finalized series is still
// served.
func TestFinishedRunKeepsNoRing(t *testing.T) {
	c, err := NewChecker(buildChain(t))
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	mon.EnableProfile(ProfileConfig{SampleEvery: 2})
	// The sequential sweep runs the predicate on the exploring goroutine,
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
	ring := &run.cells.at(0).ring
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
