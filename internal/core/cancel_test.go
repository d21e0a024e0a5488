package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ta"
)

// buildHuge constructs a network whose zone graph is far too large to sweep
// within the test's patience: six free-phase generators with co-prime periods
// feeding a shared counter. Cancellation and deadline tests abort mid-sweep
// against it, so a run that fails to abort hangs visibly instead of passing
// by finishing early.
func buildHuge(t *testing.T) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("huge")
	sx := n.AddClock("sx")
	rec := n.AddVar("rec", 0, 0, 40)
	hurry := n.AddChan("hurry", ta.BroadcastUrgent)
	for i, period := range []int64{7, 11, 13, 17, 19, 23} {
		gx := n.AddClock("gx" + string(rune('0'+i)))
		gen := n.AddProcess("GEN" + string(rune('0'+i)))
		g0 := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, period))
		gen.AddEdge(ta.Edge{Src: g0, Dst: g0, ClockGuard: ta.CEq(gx, period),
			Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}, Update: ta.Inc(rec, 1)})
	}
	srv := n.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 2))
	srv.AddEdge(ta.Edge{Src: idle, Dst: busy,
		Guard:  ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}},
		Update: ta.Inc(rec, -1)})
	srv.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(sx, 2)})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCancelMidSweep closes the cancel channel from inside the sweep (after
// a fixed number of admissions) and requires a prompt ErrCanceled with
// partial stats, inline and with the lookahead helper in flight (helperAt).
func TestCancelMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := buildHuge(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var admitted atomic.Int64
		visit := func(s *State) bool {
			if admitted.Add(1) == 500 {
				cancel()
			}
			return false
		}
		start := time.Now()
		res, err := c.Explore(Options{Workers: workers, lookahead: helperAt(workers), Context: ctx}, visit)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("workers=%d: cancellation took %v, not prompt", workers, elapsed)
		}
		// Partial stats: the sweep got past the trigger point but nowhere
		// near the full graph (which holds far more than 10x the trigger).
		if res.Stored < 500 {
			t.Errorf("workers=%d: stored %d, want >= 500 (cancel fired at 500 admissions)", workers, res.Stored)
		}
		if res.Popped == 0 {
			t.Errorf("workers=%d: partial stats missing popped count", workers)
		}
	}
}

// TestCancelLeavesEngineReusable is the pool-cleanliness oracle for
// cancellation: a canceled sweep must not corrupt anything a later sweep
// touches. A full exploration on the same checker after a cancel must be
// bit-identical to one on a fresh checker (same stored/transition counts,
// the determinism the recycling protocol guarantees — see pool_test.go).
func TestCancelLeavesEngineReusable(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var admitted atomic.Int64
	_, err = c.Explore(Options{Context: ctx}, func(*State) bool {
		if admitted.Add(1) == 20 {
			cancel()
		}
		return false
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	after, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stored != want.Stored || after.Transitions != want.Transitions ||
		after.Popped != want.Popped || after.Deadlocks != want.Deadlocks {
		t.Errorf("post-cancel sweep %+v differs from fresh checker %+v", after.Stats, want.Stats)
	}
}

// TestDeadlineMidSweep bounds a hopeless sweep by wall clock and requires
// ErrDeadlineExceeded with partial stats.
func TestDeadlineMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := buildHuge(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(50*time.Millisecond))
		res, err := c.Explore(Options{Workers: workers, lookahead: helperAt(workers), Context: ctx}, nil)
		cancel()
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrDeadlineExceeded", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("workers=%d: deadline abort took %v, not prompt", workers, elapsed)
		}
		if res.Stored == 0 || res.Popped == 0 {
			t.Errorf("workers=%d: expected partial stats, got %+v", workers, res.Stats)
		}
	}
}

// TestAbortBeforeStart covers the pre-flight check: a context whose deadline
// has passed or that was canceled refuses the run with zero stats and leaves
// the queries unused, so the same query value can still run afterwards.
func TestAbortBeforeStart(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSupClockQuery(sx.ID, func(s *State) bool { return s.Locs[3] == busy })
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.RunQueries(Options{Context: expired}, q); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want ErrDeadlineExceeded", err)
	}
	closed, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunQueries(Options{Context: closed}, q); !errors.Is(err, ErrCanceled) {
		t.Fatalf("closed cancel: err = %v, want ErrCanceled", err)
	}
	// The refused runs never consumed the query; it still answers exactly.
	if _, err := c.RunQueries(Options{}, q); err != nil {
		t.Fatalf("query unusable after refused runs: %v", err)
	}
	if !q.Result.Seen {
		t.Error("query did not run after refused attempts")
	}
}

// TestDeadlineWinsOverCancel pins the check order: when a context was
// canceled and its deadline has passed since, the more specific
// ErrDeadlineExceeded is reported — that is what lets callers driving a
// context distinguish expiry from cancellation.
func TestDeadlineWinsOverCancel(t *testing.T) {
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	cancel()
	time.Sleep(time.Until(deadline) + 10*time.Millisecond)
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want context.Canceled: the cancel must come first", ctx.Err())
	}
	_, err = c.Explore(Options{Context: ctx}, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded to win", err)
	}
}

// expiredSince is a context that was canceled and whose deadline has passed
// since, without the wait TestDeadlineWinsOverCancel makes for one.
type expiredSince struct {
	context.Context
	deadline time.Time
}

func (c expiredSince) Deadline() (time.Time, bool) { return c.deadline, true }

// TestAbortErr is AbortErr's table: the deadline decides once it has passed,
// whatever else happened to the context.
func TestAbortErr(t *testing.T) {
	past := time.Now().Add(-time.Second)
	canceledParent, cancelParent := context.WithCancel(context.Background())
	cancelParent()
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"nil", func() (context.Context, context.CancelFunc) { return nil, func() {} }, nil},
		{"live", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
		}, nil},
		{"canceled before its deadline", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
			cancel()
			return ctx, cancel
		}, ErrCanceled},
		{"deadline passed", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), past)
		}, ErrDeadlineExceeded},
		{"deadline passed, then canceled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithDeadline(context.Background(), past)
			cancel()
			return ctx, cancel
		}, ErrDeadlineExceeded},
		{"canceled, then its deadline passed", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return expiredSince{ctx, past}, cancel
		}, ErrDeadlineExceeded},
		{"canceled parent", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(canceledParent)
		}, ErrCanceled},
	}
	for _, tc := range cases {
		ctx, cancel := tc.ctx()
		if got := AbortErr(ctx); got != tc.want {
			t.Errorf("%s: AbortErr = %v, want %v", tc.name, got, tc.want)
		}
		cancel()
	}
}

// TestMonitorFinalSnapshotMatchesStats requires a post-run Snapshot, and a
// profiled run's Profile().Totals, to equal the run's exact Stats, at
// Workers 1 and 4, plain, under a memory budget that never trips, and
// profiled, each also with the lookahead helper engaged: every reader loads
// the same cell.
func TestMonitorFinalSnapshotMatchesStats(t *testing.T) {
	modes := []struct {
		name    string
		opts    Options
		profile bool
	}{
		{"plain", Options{}, false},
		{"budgeted", Options{MaxBytes: 1 << 40}, false},
		{"profiled", Options{}, true},
		{"plain+lookahead", Options{lookahead: lookaheadOn}, false},
		{"budgeted+lookahead", Options{MaxBytes: 1 << 40, lookahead: lookaheadOn}, false},
		{"profiled+lookahead", Options{lookahead: lookaheadOn}, true},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			n, _, _, _ := buildGrid(t)
			c, err := NewChecker(n)
			if err != nil {
				t.Fatal(err)
			}
			var mon Monitor
			if mode.profile {
				mon.EnableProfile(ProfileConfig{SampleEvery: 8})
			}
			opts := mode.opts
			opts.Workers, opts.Monitor = workers, &mon
			res, err := c.Explore(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/workers=%d", mode.name, workers)
			p := mon.Snapshot()
			if p.Running {
				t.Errorf("%s: monitor still Running after the run returned", name)
			}
			matches := func(p Progress) bool {
				return p.Stored == int64(res.Stored) && p.Popped == int64(res.Popped) &&
					p.Transitions == int64(res.Transitions) && p.Deadlocks == int64(res.Deadlocks)
			}
			if !matches(p) {
				t.Errorf("%s: final snapshot %+v != stats %+v", name, p, res.Stats)
			}
			// The readers agreeing is not enough: they load the same cell. An
			// exhaustive sweep expands every state it stored, so the cell is
			// exact only if the loop published on its way out.
			if res.Popped != res.Stored {
				t.Errorf("%s: exhaustive sweep popped %d of %d stored states", name, res.Popped, res.Stored)
			}
			if p.Frontier != 0 {
				t.Errorf("%s: final snapshot frontier = %d, want 0", name, p.Frontier)
			}
			if mode.profile {
				prof := mon.Profile()
				if prof == nil || !matches(prof.Totals) {
					t.Errorf("%s: profile totals %+v != stats %+v", name, prof, res.Stats)
				}
			} else if mon.Profile() != nil {
				t.Errorf("%s: an unprofiled monitor recorded a profile", name)
			}
		}
	}
}

// TestMonitorLiveSnapshot samples the monitor mid-sweep (from the visitor,
// which runs on the admitting goroutine) and requires a plausible in-flight view
// on every sample: running, a backlog that is never negative, no more states
// popped than stored, stored at least as large as the admissions seen, and a
// backlog that shows at some point.
func TestMonitorLiveSnapshot(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		var mon Monitor
		var mu sync.Mutex
		var bad []Progress
		var sampled bool
		var snap Progress
		var maxFrontier int64
		_, err = c.Explore(Options{Workers: workers, lookahead: helperAt(workers), Monitor: &mon}, func(*State) bool {
			p := mon.Snapshot()
			if p == (Progress{}) {
				return false // the initial state is visited before the monitor attaches
			}
			mu.Lock()
			defer mu.Unlock()
			if p.Frontier < 0 || p.Popped > p.Stored || !p.Running {
				bad = append(bad, p)
			}
			maxFrontier = max(maxFrontier, p.Frontier)
			if p.Stored >= 100 && !sampled {
				sampled, snap = true, p
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Errorf("workers=%d: %d implausible live samples, first %+v", workers, len(bad), bad[0])
		}
		if !sampled {
			t.Fatalf("workers=%d: sweep too small to sample at 100 stored states", workers)
		}
		if snap.Stored < 100 {
			t.Errorf("workers=%d: mid-sweep snapshot stored = %d, want >= 100", workers, snap.Stored)
		}
		// The grid's backlog is narrow but not empty: admitted-but-unpopped
		// states must have shown at some point of the sweep.
		if maxFrontier <= 0 {
			t.Errorf("workers=%d: frontier never rose above 0 across the sweep", workers)
		}
	}
}

// TestMonitorZeroValue pins the unattached behavior.
func TestMonitorZeroValue(t *testing.T) {
	var mon Monitor
	if p := mon.Snapshot(); p != (Progress{}) {
		t.Errorf("unattached snapshot = %+v, want zero", p)
	}
}
