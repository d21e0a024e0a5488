package core

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the sweep-profile recorder: an opt-in extension of Monitor
// that captures per-phase spans (parse → compile → explore → trace-replay)
// and a sampled time series of the exploration's behavior — throughput,
// frontier depth, pool traffic, store footprint.
//
// The cost contract:
//
//   - Opt-in and alloc-free when off. The sampling mask exists only when
//     EnableProfile was called, and the admitting loop's disabled path is one
//     nil check. The counters a sample reads are the run's cell
//     (perworker.go), which every run publishes anyway. The bench gate pins
//     the disabled sweep to exactly its historical allocs/op through the
//     Table1_HandleTMC_AL_po / ..._Profiled twin pair; a regression there is
//     hot-path telemetry leaking.
//   - Sized to the run. The ring lives in the run's workerCell, starts
//     empty and grows by append up to maxSamples, so a sweep of a few dozen
//     states holds one or two samples, not a big sweep's ring. finalize
//     copies the series into the recorder; monView.setDone then drops the
//     explorer, and the cell and its ring go with it, so of a finished run a
//     Monitor keeps its totals and its SweepProfile, and nothing else.
//   - Ring ownership. The admitting loop appends to the ring at a
//     power-of-two expansion stride, reads only what it owns or what is
//     shared and atomic (loop locals, the run's cell, the store's counters),
//     and never takes a lock. finalize runs strictly after the loop has
//     returned, so the ring is quiescent when frozen. Live scrapes
//     (Monitor.Snapshot, Monitor.Profile) read the cell's atomics and the
//     previous completed run only; TestProfileScrapeDuringSweep hammers this
//     under -race.

// ProfileConfig tunes the sweep-profile recorder. The zero value selects the
// documented default.
type ProfileConfig struct {
	// SampleEvery is the sampling stride in expansions, rounded
	// up to a power of two so the loop test is one mask. Default 256.
	SampleEvery int
}

// maxSamples bounds the ring (32 KB of samples at most); the ring
// grows by append until it holds this many, then the oldest samples are
// overwritten and counted as Dropped.
const maxSamples = 512

func (c ProfileConfig) withDefaults() ProfileConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 256
	}
	return c
}

// WorkerSample is one point of a run's time series. Counters are cumulative
// totals at sample time, so rates (states/sec) are first differences over
// AtNS.
type WorkerSample struct {
	// AtNS is the sample time in Unix nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Popped and Transitions are the cumulative expansion counters.
	Popped      int64 `json:"popped"`
	Transitions int64 `json:"transitions"`
	// PoolGets / PoolReuses count the matrices the run's ctxs handed out
	// with their States (and their scratch zones) and those that came
	// recycled with a State, the lookahead helper's included; the gap is the
	// matrices the run has carved.
	PoolGets   int64 `json:"pool_gets"`
	PoolReuses int64 `json:"pool_reuses"`
	// Frontier is the global backlog at sample time: states admitted, not
	// yet popped, relaxed like Progress.Frontier.
	Frontier int64 `json:"frontier"`
	// StoredBytes is the passed store's global footprint (passedSet.bytes)
	// at sample time.
	StoredBytes int64 `json:"stored_bytes"`
}

// WorkerSeries is a run's sampled time series. A run has one.
type WorkerSeries struct {
	// Dropped counts samples overwritten by the bounded ring; the retained
	// Samples are the newest ones, oldest first.
	Dropped int            `json:"dropped"`
	Samples []WorkerSample `json:"samples"`
}

// SweepProfile is the structured profile of a monitored run: phase spans
// plus the series and totals of the most recently completed exploration.
// Phases accumulate across runs on the same Monitor (a CLI records
// parse/compile before the sweep; icrns fallback reruns append a second
// explore span); Series/Totals describe the latest completed run only.
type SweepProfile struct {
	SampleEvery int            `json:"sample_every"`
	Phases      []obs.Span     `json:"phases"`
	Series      []WorkerSeries `json:"series,omitempty"`
	// Steals is always 0: the engine has no work-stealing frontier. The
	// field stays for the benchmark's steals row.
	Steals int64 `json:"steals"`
	// StoreContention is always 0: the passed store has no locks. The field
	// stays for the benchmark's store_contention row.
	StoreContention int64 `json:"store_contention"`
	// CallerWaits counts the admitting goroutine's polls for an expansion the
	// lookahead helper had not finished, HelperIdle the helper's polls for a
	// node to expand ("Lookahead" in explore.go): the first says the sweep
	// waited on expansion, the second that it was bound by admission. Both
	// are 0 for a sweep that never engaged the helper.
	CallerWaits int64 `json:"caller_waits"`
	HelperIdle  int64 `json:"helper_idle"`
	// Totals are the run's exact final counters (equal to Stats).
	Totals Progress `json:"totals"`
}

// profRecorder is the Monitor-lifetime half of the profiler: configuration,
// the accumulated phase spans, and the finalized data of the last run.
type profRecorder struct {
	cfg    ProfileConfig
	phases obs.SpanList

	// last is the finalized profile of the most recent completed run,
	// written under setDone and read by Profile.
	mu   sync.Mutex
	last *SweepProfile
}

func newProfRecorder(cfg ProfileConfig) *profRecorder {
	return &profRecorder{cfg: cfg.withDefaults()}
}

func (r *profRecorder) setLast(p *SweepProfile) {
	r.mu.Lock()
	r.last = p
	r.mu.Unlock()
}

func (r *profRecorder) getLast() *SweepProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// profRun is the per-run sampling state, allocated at attach time only for
// profile-enabled monitors — a disabled run allocates nothing. The samples
// themselves live in the run's cell.
type profRun struct {
	rec  *profRecorder
	mask int64
}

// profRing is a run's bounded sample ring; it starts empty and grows
// by append to at most maxSamples.
type profRing struct {
	samples []WorkerSample
	n       int // total samples taken; once wrapped, the ring index is n % maxSamples
}

func (r *profRecorder) newRun() *profRun {
	every := r.cfg.SampleEvery
	mask := int64(1)
	for mask < int64(every) {
		mask <<= 1
	}
	return &profRun{rec: r, mask: mask - 1}
}

// sampleProfile appends one point to the run's ring. The loop calls this at
// its sampling stride; nothing else writes the ring until it has returned.
func (e *explorer) sampleProfile(nPopped, nTransitions int64, gets, reuses int) {
	p := e.progress()
	s := WorkerSample{
		AtNS:        time.Now().UnixNano(),
		Popped:      nPopped,
		Transitions: nTransitions,
		PoolGets:    int64(gets),
		PoolReuses:  int64(reuses),
		Frontier:    p.Frontier,
		StoredBytes: p.StoredBytes,
	}
	ring := &e.cell.ring
	if len(ring.samples) < maxSamples {
		ring.samples = append(ring.samples, s)
	} else {
		ring.samples[ring.n%maxSamples] = s
	}
	ring.n++
}

// finalize freezes the run's series into the recorder. Called from
// monView.setDone, strictly after the loop has returned, so the ring is
// quiescent.
func (pr *profRun) finalize(e *explorer, totals Progress) {
	r := &e.cell.ring
	ws := WorkerSeries{}
	if r.n > len(r.samples) {
		ws.Dropped = r.n - len(r.samples)
		// The ring wrapped: rotate so the retained samples read oldest
		// first.
		at := r.n % maxSamples
		ws.Samples = append(append([]WorkerSample(nil), r.samples[at:]...), r.samples[:at]...)
	} else {
		ws.Samples = append([]WorkerSample(nil), r.samples...)
	}
	pr.rec.setLast(&SweepProfile{
		SampleEvery: int(pr.mask + 1),
		Series:      []WorkerSeries{ws},
		CallerWaits: e.cell.callerWaits.Load(),
		HelperIdle:  e.cell.helperIdle.Load(),
		Totals:      totals,
	})
}

// EnableProfile switches the monitor's next runs to profiled mode: phase
// spans accumulate and every attached exploration fills sampling rings.
// Call before the run starts; calling it again replaces the configuration
// and clears previously recorded data.
func (m *Monitor) EnableProfile(cfg ProfileConfig) {
	m.prof.Store(newProfRecorder(cfg))
}

// noopEnd is the shared closer BeginPhase hands out when profiling is off,
// so the disabled path allocates no closure.
func noopEnd() {}

// BeginPhase opens a named phase span (parse, compile, ...) and returns its
// closer. A no-op when profiling is disabled — callers can thread phases
// unconditionally.
func (m *Monitor) BeginPhase(name string) func() {
	r := m.prof.Load()
	if r == nil {
		return noopEnd
	}
	return r.phases.Begin(name)
}

// RecordPhase records an already-measured phase interval — for work that
// happened before the monitor existed (a service job's parse happens during
// submission, the job is created after). No-op when profiling is disabled.
func (m *Monitor) RecordPhase(name string, start, end time.Time) {
	if r := m.prof.Load(); r != nil {
		r.phases.Record(name, start, end)
	}
}

// Profile snapshots the recorded profile: the accumulated phase spans plus
// the series of the most recently completed run. It returns nil
// until profiling is enabled and something has been recorded. Safe from any
// goroutine; while a run is live it reports the previous completed run's
// series (the live run's ring is single-writer and unreadable until the
// loop has returned).
func (m *Monitor) Profile() *SweepProfile {
	r := m.prof.Load()
	if r == nil {
		return nil
	}
	phases := r.phases.Snapshot()
	last := r.getLast()
	if last == nil {
		if len(phases) == 0 {
			return nil
		}
		return &SweepProfile{Phases: phases}
	}
	p := *last
	p.Phases = phases
	return &p
}
