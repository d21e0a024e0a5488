//go:build faultinject

// Package faultinject is the build-tag-gated chaos harness of the analysis
// stack. Compiled with -tags faultinject it lets tests arm faults (panic,
// injected error, artificial delay) at named sites that core and serve have
// threaded through their hot paths; compiled without the tag (the default,
// faultinject_off.go) every hook is a constant-false branch that the compiler
// deletes, so production binaries carry zero overhead and zero risk.
//
// Sites are plain strings agreed between the instrumented code and the chaos
// tests:
//
//	core/worker    — fired once per expansion, on the goroutine that expands:
//	                 the admitting loop, or a breadth-first sweep's lookahead
//	                 helper
//	serve/job      — fired when a job transitions to running, before its sweep
//	serve/dispatch — fired as a proxy job starts routing to its owner node;
//	                 an injected error degrades the dispatch to local compute,
//	                 a panic is contained like any other job crash
//	dbm/mmap       — fired before a zone slab is mapped; an injected error is a
//	                 refused mapping, and the slab comes from the heap instead
//
// The registry is concurrency-safe: chaos tests run sweeps under -race while
// the armed fault fires on the admitting loop or on the lookahead helper.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Enabled reports whether the binary was built with the faultinject tag.
// Instrumented code guards every hook with `if faultinject.Enabled` so the
// untagged build eliminates the calls entirely.
const Enabled = true

// Kind selects what an armed fault does when it fires.
type Kind int

const (
	// KindPanic panics with the fault's Err (or the site name) — the
	// crash-containment scenario.
	KindPanic Kind = iota
	// KindError makes Fire return the fault's Err — the alloc-failure /
	// internal-error scenario.
	KindError
	// KindDelay sleeps for the fault's Delay and keeps going — the
	// slow-expansion or slow-job scenario.
	KindDelay
)

// Fault is one armed fault.
type Fault struct {
	Kind Kind
	// After skips this many hits of the site before the fault fires; 0 fires
	// on the first hit. KindPanic and KindError fire once and disarm;
	// KindDelay fires on every hit past After.
	After int64
	// Delay is the sleep of a KindDelay fault.
	Delay time.Duration
	// Err is the panic value of KindPanic and the return of KindError; nil
	// defaults to a site-named error.
	Err error
}

type armed struct {
	fault Fault
	hits  atomic.Int64
	fired atomic.Bool
}

var (
	mu    sync.RWMutex
	sites = map[string]*armed{}
)

// Set arms a fault at the named site, replacing any previous one.
func Set(site string, f Fault) {
	mu.Lock()
	sites[site] = &armed{fault: f}
	mu.Unlock()
}

// Clear disarms the named site.
func Clear(site string) {
	mu.Lock()
	delete(sites, site)
	mu.Unlock()
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	sites = map[string]*armed{}
	mu.Unlock()
}

// siteError is the default error minted for a site with no explicit Err.
type siteError string

func (e siteError) Error() string { return "faultinject: fault at " + string(e) }

// Fire triggers the site: it panics, returns an error, or sleeps according
// to the armed fault, and returns nil when the site is disarmed or still
// within its After window.
func Fire(site string) error {
	mu.RLock()
	a := sites[site]
	mu.RUnlock()
	if a == nil {
		return nil
	}
	if a.hits.Add(1) <= a.fault.After {
		return nil
	}
	err := a.fault.Err
	if err == nil {
		err = siteError(site)
	}
	switch a.fault.Kind {
	case KindPanic:
		if a.fired.CompareAndSwap(false, true) {
			panic(err)
		}
	case KindError:
		if a.fired.CompareAndSwap(false, true) {
			return err
		}
	case KindDelay:
		time.Sleep(a.fault.Delay)
	}
	return nil
}
