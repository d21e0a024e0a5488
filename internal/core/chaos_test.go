//go:build faultinject

package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// This file is the core half of the chaos suite (CI job "chaos"): it runs
// only under -tags faultinject, arming faults at the explorer's named site
// and asserting the engine fails the run — never the process, never a later
// run. The whole package's pool-ownership oracles run in the same tagged
// -race configuration, so an injected crash that corrupted recycling would
// trip them.

// TestChaosWorkerPanicContained injects a panic into the expansions of a
// sweep — inline, and on the lookahead helper — and requires a contained
// *PanicError, then proves the checker is still bit-identical to a fresh one
// on the next sweep.
func TestChaosWorkerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	for _, m := range lookaheadModes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/worker", faultinject.Fault{Kind: faultinject.KindPanic, After: 50})
		_, err = c.Explore(Options{lookahead: m}, nil)
		faultinject.Clear("core/worker")
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("lookahead=%d: err = %v, want *PanicError", m, err)
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
			t.Errorf("lookahead=%d: post-chaos sweep %+v differs from fresh checker %+v",
				m, after.Stats, want.Stats)
		}
	}
}

// TestChaosLookaheadPanicContained injects a panic and an error into the
// expansions of a breadth-first sweep whose lookahead helper is forced on, so
// both fire on the helper goroutine while it holds expansions, and requires
// the error the inline run gives — a *PanicError carrying the helper's stack,
// the injected error — with the same partial Stats, then a checker as good as
// a fresh one.
func TestChaosLookaheadPanicContained(t *testing.T) {
	defer faultinject.Reset()
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := admissions(t, fresh, Options{})
	bang := errors.New("chaos: expansion failed")
	for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindError} {
		var stats [2]Stats
		for i, m := range lookaheadModes {
			faultinject.Set("core/worker", faultinject.Fault{Kind: kind, After: 50, Err: bang})
			res, err := c.Explore(Options{lookahead: m}, nil)
			faultinject.Clear("core/worker")
			var pe *PanicError
			switch {
			case kind == faultinject.KindError:
				if !errors.Is(err, bang) {
					t.Fatalf("lookahead mode %d: err = %v, want the injected error", m, err)
				}
			case !errors.As(err, &pe):
				t.Fatalf("lookahead mode %d: err = %v, want *PanicError", m, err)
			case m == lookaheadOn && !strings.Contains(string(pe.Stack), "(*lookahead).serve"):
				t.Errorf("the panic was not raised on the helper:\n%s", pe.Stack)
			}
			stats[i] = res.Stats
			got, gotStats := admissions(t, c, Options{})
			sameSweep(t, "the sweep after", got, want, gotStats, wantStats)
		}
		if !sameStats(stats[0], stats[1]) {
			t.Errorf("fault kind %d: partial stats %+v with the helper, %+v without", kind, stats[0], stats[1])
		}
	}
}

// TestChaosInjectedAllocFailure injects an error return (the alloc-failure
// scenario) and requires the run to fail with exactly that error and partial
// stats.
func TestChaosInjectedAllocFailure(t *testing.T) {
	defer faultinject.Reset()
	bang := errors.New("chaos: allocation failed")
	for _, m := range lookaheadModes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/worker", faultinject.Fault{Kind: faultinject.KindError, After: 50, Err: bang})
		res, err := c.Explore(Options{lookahead: m}, nil)
		faultinject.Clear("core/worker")
		if !errors.Is(err, bang) {
			t.Fatalf("lookahead=%d: err = %v, want injected error", m, err)
		}
		if res.Popped == 0 {
			t.Errorf("lookahead=%d: partial stats lost: %+v", m, res.Stats)
		}
	}
}

// TestChaosStorePanicContained injects a panic inside compact-store admission
// ("core/store" fires at the top of storeEntry.admit, on the admitting
// goroutine, with the lookahead helper in flight) and requires a
// contained *PanicError. The follow-up sweep proves the half-admitted store
// left the checker reusable: it is bit-identical to a fresh checker's.
func TestChaosStorePanicContained(t *testing.T) {
	defer faultinject.Reset()
	for _, m := range lookaheadModes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/store", faultinject.Fault{Kind: faultinject.KindPanic, After: 50})
		_, err = c.Explore(Options{lookahead: m}, nil)
		faultinject.Clear("core/store")
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("lookahead=%d: err = %v, want *PanicError", m, err)
		}

		after, err := c.Explore(Options{lookahead: m}, nil)
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
		if !sameStats(after.Stats, want.Stats) {
			t.Errorf("lookahead=%d: post-chaos sweep %+v differs from fresh checker %+v",
				m, after.Stats, want.Stats)
		}
	}
}

// TestChaosSlowWorkerStillCancels arms a per-expansion delay (the slow-worker
// scenario) and requires cooperative cancellation to land promptly anyway:
// the abort checkpoint sits between expansions, so a slow worker delays the
// abort by at most its own in-flight expansion.
func TestChaosSlowWorkerStillCancels(t *testing.T) {
	defer faultinject.Reset()
	n := buildHuge(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("core/worker", faultinject.Fault{Kind: faultinject.KindDelay, Delay: time.Millisecond})
	defer faultinject.Clear("core/worker")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Explore(Options{lookahead: lookaheadOn, Context: ctx}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation under injected slowness took %v", elapsed)
	}
}
