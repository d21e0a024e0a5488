package core

import "sync/atomic"

// This file is the live-progress view of the unified explorer: a Monitor
// attached through Options.Monitor lets another goroutine sample a running
// exploration (states stored, expansion counters, frontier backlog) without
// perturbing it. The mechanism follows the per-worker ownership style of the
// rest of the engine: every worker publishes its loop-local counters into its
// own perWorker cell with plain atomic stores (single writer, never a
// read-modify-write, never contended), and Snapshot sums the cells. Once the
// run finishes, Snapshot switches to the explorer's exact flushed totals, so
// a final sample equals the run's Stats.

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
	// Frontier is the current backlog: states admitted but not yet fully
	// expanded. Zero once the run is over.
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

// workerCounts is one worker's published counters.
type workerCounts struct {
	popped      atomic.Int64
	transitions atomic.Int64
	deadlocks   atomic.Int64
}

// publish stores the worker's loop locals; single writer per cell.
func (c *workerCounts) publish(popped, transitions, deadlocks int64) {
	c.popped.Store(popped)
	c.transitions.Store(transitions)
	c.deadlocks.Store(deadlocks)
}

// monView binds a Monitor to one exploration run. The explorer pointer and
// the profile rings are dropped at completion, so a long-retained Monitor (a
// finished service job in a result cache) pins only the final totals, the
// per-worker cells and the finalized SweepProfile — never the run's passed
// store, parent logs, zones or sample rings.
type monView struct {
	e     atomic.Pointer[explorer]
	cells perWorker[workerCounts]
	// prof is the run's profile sampling state; nil unless the Monitor has
	// profiling enabled (EnableProfile), so a plain monitored run allocates
	// nothing for it, and nil again once setDone has finalized it. Only the
	// exploring goroutine touches it: attach before the workers start,
	// setDone after their barrier.
	prof *profRun
	// final holds the exact flushed totals once the run is over; stored
	// strictly before e is cleared, so a Snapshot that finds e nil re-reads
	// final and always gets it.
	final atomic.Pointer[Progress]
}

// setDone freezes the run's exact totals and releases the explorer and the
// sample rings.
func (v *monView) setDone() {
	e := v.e.Load()
	if e == nil {
		return
	}
	p := Progress{
		Workers:     len(v.cells),
		Stored:      e.stored.Load(),
		Popped:      e.popped.Load(),
		Transitions: e.transitions.Load(),
		Deadlocks:   e.deadlocks.Load(),
	}
	if e.passed != nil {
		p.StoredBytes = e.passed.bytes()
		p.InternHits, p.InternMisses = e.passed.internStats()
	}
	if v.prof != nil {
		// The worker barrier has passed: the sample rings are quiescent, so
		// the run's series freezes into the recorder before the explorer is
		// released, and the rings go with it.
		v.prof.finalize(e, p)
		v.prof = nil
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
func (m *Monitor) attach(e *explorer, workers int) *monView {
	v := &monView{cells: make(perWorker[workerCounts], workers)}
	if r := m.prof.Load(); r != nil {
		v.prof = r.newRun(workers)
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
	p := Progress{Workers: len(v.cells), Stored: e.stored.Load(), Running: true}
	if e.passed != nil {
		p.StoredBytes = e.passed.bytes()
		p.InternHits, p.InternMisses = e.passed.internStats()
	}
	for i := range v.cells {
		c := v.cells.at(i)
		p.Popped += c.popped.Load()
		p.Transitions += c.transitions.Load()
		p.Deadlocks += c.deadlocks.Load()
	}
	if f := e.front; f != nil {
		p.Frontier = f.depth()
	}
	return p
}
