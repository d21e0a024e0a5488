package core

import (
	"sync"
	"testing"
	"time"
)

// TestSweepProfilePhasesAndSeries runs a monitored exploration with a
// one-expansion sampling stride and checks the full recorder contract:
// phase spans (recorded parse + measured explore), a per-worker series with
// cumulative counters, ring overflow accounting, and exact totals.
func TestSweepProfilePhasesAndSeries(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	mon.EnableProfile(ProfileConfig{SampleEvery: 1})
	parseStart := time.Now().Add(-time.Millisecond)
	mon.RecordPhase("parse", parseStart, time.Now())

	stats, err := c.Explore(Options{Monitor: mon}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mon.Profile()
	if p == nil {
		t.Fatal("Profile() = nil after a monitored run")
	}
	if len(p.Series) != 1 {
		t.Fatalf("Series=%d, want 1", len(p.Series))
	}
	if p.Totals.Stored != int64(stats.Stored) {
		t.Errorf("Totals.Stored = %d, want the run's %d", p.Totals.Stored, stats.Stored)
	}

	phases := map[string]int{}
	var prevStart int64
	for _, sp := range p.Phases {
		phases[sp.Name]++
		if sp.DurNS < 0 || sp.StartNS <= 0 {
			t.Errorf("phase %s has start=%d dur=%d, want positive start and nonnegative dur",
				sp.Name, sp.StartNS, sp.DurNS)
		}
		if sp.StartNS < prevStart {
			t.Errorf("phase %s starts at %d, before predecessor %d — spans must be monotone",
				sp.Name, sp.StartNS, prevStart)
		}
		prevStart = sp.StartNS
	}
	for _, want := range []string{"parse", "explore"} {
		if phases[want] == 0 {
			t.Errorf("phase %s missing (got %+v)", want, p.Phases)
		}
	}

	ws := p.Series[0]
	if len(ws.Samples) == 0 {
		t.Fatal("stride-1 sampling recorded no samples")
	}
	// The grid expands more states than a ring holds, so the ring must have
	// wrapped, and the retained samples must read oldest-first with the
	// worker's cumulative counters nondecreasing.
	if ws.Dropped == 0 {
		t.Errorf("expected a %d-sample ring to overflow on %d expansions", maxSamples, stats.Stored)
	}
	// At stride 1 the worker samples once per pop, plus the stride-boundary
	// sample before the first counted pop.
	if int64(ws.Dropped+len(ws.Samples)) > p.Totals.Popped+1 {
		t.Errorf("sample accounting %d+%d exceeds %d expansions",
			ws.Dropped, len(ws.Samples), p.Totals.Popped)
	}
	var prev WorkerSample
	for i, s := range ws.Samples {
		if i > 0 && (s.AtNS < prev.AtNS || s.Popped < prev.Popped || s.Transitions < prev.Transitions) {
			t.Fatalf("sample %d not monotone after rotation: %+v then %+v", i, prev, s)
		}
		prev = s
	}
	if prev.Popped == 0 {
		t.Error("final sample has Popped = 0, want the worker's cumulative count")
	}
}

// TestSweepProfileParallel checks the profile of a run at Workers 4 with the
// lookahead helper forced on: one series, samples in it, the steal and
// contention totals at zero, and totals equal to the Workers: 1 run's.
func TestSweepProfileParallel(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	mon.EnableProfile(ProfileConfig{SampleEvery: 1})
	if _, err := c.Explore(Options{Workers: 4, Monitor: mon, lookahead: lookaheadOn}, nil); err != nil {
		t.Fatal(err)
	}
	p := mon.Profile()
	if p == nil {
		t.Fatal("Profile() = nil after a monitored run")
	}
	if len(p.Series) != 1 {
		t.Fatalf("Series=%d, want 1", len(p.Series))
	}
	if p.Steals != 0 || p.StoreContention != 0 {
		t.Fatalf("steals=%d contention=%d, want 0 and 0", p.Steals, p.StoreContention)
	}
	if len(p.Series[0].Samples) == 0 {
		t.Error("no sample recorded at stride 1")
	}
	if p.Totals.Stored != int64(seq.Stored) || p.Totals.Popped != int64(seq.Popped) ||
		p.Totals.Transitions != int64(seq.Transitions) {
		t.Errorf("profile totals %+v, Workers: 1 stats %v", p.Totals, seq.Stats)
	}
}

// TestProfileDisabledRecordsNothing pins the opt-in contract: without
// EnableProfile the monitor hands out the shared no-op closer and Profile
// stays nil even after monitored runs.
func TestProfileDisabledRecordsNothing(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	end := mon.BeginPhase("explore")
	end()
	mon.RecordPhase("parse", time.Now(), time.Now())
	if _, err := c.Explore(Options{Monitor: mon}, nil); err != nil {
		t.Fatal(err)
	}
	if p := mon.Profile(); p != nil {
		t.Fatalf("disabled monitor recorded a profile: %+v", p)
	}
}

// TestProfileScrapeDuringSweep hammers the monitor's read side — Snapshot
// and Profile, the paths a live /v1/metrics scrape and profile poll take —
// while a profiled sweep runs with its lookahead helper. The -race build is
// the assertion: scrapes must never race the single-writer cell or the
// sampling ring.
func TestProfileScrapeDuringSweep(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{}
	mon.EnableProfile(ProfileConfig{SampleEvery: 1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = mon.Snapshot()
				if p := mon.Profile(); p != nil {
					for _, ws := range p.Series {
						_ = len(ws.Samples)
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Explore(Options{Workers: 4, Monitor: mon, lookahead: lookaheadOn}, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if p := mon.Profile(); p == nil || len(p.Series) != 1 {
		t.Fatal("profile missing after concurrent scrapes")
	}
}
