//go:build faultinject

package core

import (
	"errors"
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

// TestChaosWorkerPanicContained injects a panic into a parallel worker loop
// mid-sweep and requires a contained *PanicError, then proves the checker is
// still bit-identical to a fresh one on the next sweep.
func TestChaosWorkerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	for _, workers := range []int{1, 4} {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/worker", faultinject.Fault{Kind: faultinject.KindPanic, After: 50})
		_, err = c.Explore(Options{Workers: workers}, nil)
		faultinject.Clear("core/worker")
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
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
			t.Errorf("workers=%d: post-chaos sweep %+v differs from fresh checker %+v",
				workers, after.Stats, want.Stats)
		}
	}
}

// TestChaosInjectedAllocFailure injects an error return (the alloc-failure
// scenario) and requires the run to fail with exactly that error and partial
// stats.
func TestChaosInjectedAllocFailure(t *testing.T) {
	defer faultinject.Reset()
	bang := errors.New("chaos: allocation failed")
	for _, workers := range []int{1, 4} {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/worker", faultinject.Fault{Kind: faultinject.KindError, After: 50, Err: bang})
		res, err := c.Explore(Options{Workers: workers}, nil)
		faultinject.Clear("core/worker")
		if !errors.Is(err, bang) {
			t.Fatalf("workers=%d: err = %v, want injected error", workers, err)
		}
		if res.Popped == 0 {
			t.Errorf("workers=%d: partial stats lost: %+v", workers, res.Stats)
		}
	}
}

// TestChaosStorePanicContained injects a panic inside compact-store admission
// ("core/store" fires at the top of storeEntry.admit, i.e. while a parallel
// run's store holds a shard lock) and requires a contained *PanicError. The
// follow-up sweeps prove two things: the shard mutex was released by the
// deferred unlock (a leaked lock would deadlock the re-sweep), and the store
// swap left the checker reusable — the post-chaos sweep is bit-identical to a
// fresh checker's.
func TestChaosStorePanicContained(t *testing.T) {
	defer faultinject.Reset()
	for _, workers := range []int{1, 4} {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set("core/store", faultinject.Fault{Kind: faultinject.KindPanic, After: 50})
		_, err = c.Explore(Options{Workers: workers}, nil)
		faultinject.Clear("core/store")
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}

		after, err := c.Explore(Options{Workers: workers}, nil)
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
		if workers == 1 {
			if after.Stored != want.Stored || after.Transitions != want.Transitions ||
				after.Popped != want.Popped || after.Deadlocks != want.Deadlocks {
				t.Errorf("post-chaos sweep %+v differs from fresh checker %+v",
					after.Stats, want.Stats)
			}
		} else if after.Stored < want.Stored {
			// Parallel sweeps may double-admit, never store fewer.
			t.Errorf("workers=4: post-chaos stored %d < fresh sequential %d",
				after.Stored, want.Stored)
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
	cancel := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = c.Explore(Options{Workers: 4, Cancel: cancel}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation under injected slowness took %v", elapsed)
	}
}
