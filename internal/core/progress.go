package core

import "sync/atomic"

// This file is the live-progress view of the unified explorer: a Monitor
// attached through Options.Monitor lets another goroutine sample a running
// exploration (states stored, expansion counters, backlog) without
// perturbing it. It adds no write of its own: the workers publish into their
// run's workerCells (perworker.go) at the between-expansions checkpoint
// whether or not a Monitor is attached, and Snapshot sums the cells, so a
// monitored sweep runs the very loop an unmonitored one does. The monitor
// attaches strictly after the frontier is in place: the atomic store in
// attach publishes every explorer field Snapshot reads. Once the run is
// over, setDone freezes the cells' exact sums (the workers' exit publish has
// landed) and drops the explorer, so a final sample equals the run's Stats.

// Progress is a point-in-time view of one exploration.
type Progress struct {
	// Stored counts unique (non-subsumed) symbolic states admitted so far.
	Stored int64
	// Popped counts states taken from the frontier and expanded so far.
	Popped int64
	// Transitions counts generated successors so far, subsumed ones included.
	Transitions int64
	// Deadlocks counts expanded states with no action successor so far.
	Deadlocks int64
	// Frontier is the current backlog: states admitted, not yet popped.
	// While running it is relaxed by at most 32 expansions per worker (the
	// publication interval); zero once the run is over.
	Frontier int64
	// StoredBytes is the passed store's actual footprint: entries, zone
	// records, packed zone buffers and interned discrete vectors (see
	// store.go).
	StoredBytes int64
	// InternHits and InternMisses count discrete-vector intern-table
	// lookups that found (resp. created) a shared vector; the hit rate
	// hits/(hits+misses) measures how much discrete-state memory the
	// interning collapsed.
	InternHits   int64
	InternMisses int64
	// Workers is the worker count of the observed run.
	Workers int
	// Running reports whether the observed exploration is still going. While
	// true, the counters are a relaxed (slightly stale, never torn) view;
	// once false they are the run's exact totals.
	Running bool
}

// progress reads the run's counters. The cells are loaded before stored, so
// the backlog stored − Σpopped is never negative: every popped state was
// admitted first, and stored only grows.
func (e *explorer) progress() (Progress, cellTotals) {
	t := sumCells(e.cells)
	p := Progress{
		Workers:     len(e.cells),
		Stored:      e.stored.Load(),
		Popped:      t.popped,
		Transitions: t.transitions,
		Deadlocks:   t.deadlocks,
	}
	p.Frontier = p.Stored - p.Popped
	if e.passed != nil {
		p.StoredBytes = e.passed.bytes()
		p.InternHits, p.InternMisses = e.passed.internStats()
	}
	return p, t
}

// monView binds a Monitor to one exploration run. The explorer pointer is
// dropped at completion, so a long-retained Monitor (a finished service job
// in a result cache) pins only the final totals and the finalized
// SweepProfile — never the run's passed store, parent logs, zones or cells
// and the sample rings in them.
type monView struct {
	e atomic.Pointer[explorer]
	// prof is the run's profile sampling state; nil unless the Monitor has
	// profiling enabled (EnableProfile), so a plain monitored run allocates
	// nothing for it.
	prof *profRun
	// final holds the exact totals once the run is over; stored strictly
	// before e is cleared, so a Snapshot that finds e nil re-reads final and
	// always gets it.
	final atomic.Pointer[Progress]
}

// setDone freezes the run's exact totals and releases the explorer. Called
// strictly after the worker barrier.
func (v *monView) setDone() {
	e := v.e.Load()
	if e == nil {
		return
	}
	p, t := e.progress()
	p.Frontier = 0
	if v.prof != nil {
		v.prof.finalize(e, p, t)
	}
	v.final.Store(&p)
	v.e.Store(nil)
}

// Monitor publishes live progress of an exploration run. The zero value is
// ready to use: pass it via Options.Monitor and call Snapshot from any
// goroutine while (or after) the run executes. A Monitor observes one
// exploration at a time — attaching it to a second run replaces the view of
// the first; Snapshot then reports the latest run.
type Monitor struct {
	v atomic.Pointer[monView]
	// prof, when set (EnableProfile), upgrades every attached run to
	// profiled mode: phase spans plus sampled per-worker series (profile.go).
	prof atomic.Pointer[profRecorder]
}

// attach binds the monitor to a starting run. Called by explore strictly
// after the explorer's frontier is in place, so the atomic store here orders
// every explorer field Snapshot reads.
func (m *Monitor) attach(e *explorer) *monView {
	v := &monView{}
	if r := m.prof.Load(); r != nil {
		v.prof = r.newRun()
	}
	v.e.Store(e)
	m.v.Store(v)
	return v
}

// Snapshot samples the observed run. Before any run is attached it returns
// the zero Progress; during a run, a relaxed lock-free view; after it, the
// exact totals (equal to the run's Stats counters).
func (m *Monitor) Snapshot() Progress {
	v := m.v.Load()
	if v == nil {
		return Progress{}
	}
	if f := v.final.Load(); f != nil {
		return *f
	}
	e := v.e.Load()
	if e == nil {
		// Completion raced the loads above: final was stored before e was
		// cleared, so it is visible now.
		if f := v.final.Load(); f != nil {
			return *f
		}
		return Progress{}
	}
	p, _ := e.progress()
	p.Running = true
	return p
}
