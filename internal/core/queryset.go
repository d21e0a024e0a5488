package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the query-set layer of the unified engine: instead of one
// exploration per question, any number of queries attach to a *single* sweep
// of the zone graph and reduce over it concurrently. The paper answers each
// requirement with its own observer and its own model-checking run; compiling
// all observers into one network (arch.CompileAll) and attaching one
// SupClockQuery per observer to one RunQueries call turns k requirements ×
// 1 exploration into 1 exploration.
//
// # Completion and short-circuit
//
// Every query can complete independently: a reach query completes at its
// first matching state, a supremum query when its clock escapes the
// observation horizon, and a deadlock query at the first deadlocked state.
// The explorer keeps an atomic count of still-live queries; the completion
// that drops it to zero stops the sweep, so a one-element query set
// early-stops exactly like the dedicated methods always have.
//
// # Ownership rules (extends the protocol in store.go / explore.go)
//
//   - Per-worker reduction state: a query allocates one perWorker
//     accumulator per worker in prepare(); visit(w, s) touches only
//     accumulator w, and finish() merges them strictly after the exploration
//     barrier. The visitor path never takes a lock.
//   - States are NOT retained: when a query completes on a state that the
//     sweep still needs (other queries live), the state will be recycled, so
//     completion captures a caller-owned clone (cloneState) plus the state's
//     parent-log ref. Traces are replayed from the logs after the barrier.
//   - A Query is single-use: it carries its results after the run. Reusing
//     one in a second RunQueries call is an error.

// queryState is the completion bookkeeping shared by every query kind.
type queryState struct {
	// done flips exactly once, when the query has learned everything it
	// needs from the sweep. Workers check it to stop feeding the query.
	done atomic.Bool
	// ref is the parent-log ref of the completing state (noRef when parent
	// logging is off), read only after the worker barrier.
	ref atomic.Int64
	// found is a caller-owned clone of the completing state.
	found atomic.Pointer[State]
	// used guards against attaching the same query to two runs.
	used bool
}

func (qs *queryState) init() {
	qs.ref.Store(noRef)
}

// Query is one measurement riding a query-set exploration (RunQueries). The
// concrete kinds — ReachQuery, SupClockQuery, DeadlockQuery —
// are the composable building blocks the dedicated Checker methods are thin
// wrappers over. The interface is sealed: its methods are unexported because
// they are the engine-facing half of the ownership protocol above.
type Query interface {
	// prepare allocates per-worker reduction state before the run.
	prepare(workers int)
	// visit observes one newly admitted state on worker w; returning true
	// completes the query. It must not retain s or its zone.
	visit(w int, s *State) bool
	// onDeadlock observes a deadlocked (successor-less) state; same
	// contract as visit.
	onDeadlock(w int, s *State) bool
	// state returns the shared completion bookkeeping.
	state() *queryState
	// finish merges per-worker state and materializes results; it runs
	// strictly after the worker barrier.
	finish(c *Checker, logs *parentLogs, stats Stats) error
}

// cloneState returns a fresh caller-owned copy of s (discrete vectors and
// zone), safe to retain after the exploration's pools are recycled.
func cloneState(s *State) *State {
	ns := &State{
		Locs: append([]ta.LocID(nil), s.Locs...),
		Vars: append([]int64(nil), s.Vars...),
		ref:  noRef,
	}
	if s.Zone != nil {
		ns.Zone = s.Zone.Copy()
	}
	return ns
}

// completionTrace replays the trace to the query's completing state, when
// parent logging was on.
func (qs *queryState) completionTrace(c *Checker, logs *parentLogs) ([]TraceStep, error) {
	ref := qs.ref.Load()
	if logs == nil || ref == noRef {
		return nil, nil
	}
	return c.replayTrace(logs, ref)
}

// ReachQuery asks whether a state satisfying Pred is reachable; it completes
// at the first match with a witness trace.
type ReachQuery struct {
	Pred func(*State) bool

	// Found reports whether any state satisfied Pred.
	Found bool
	// FoundState is a caller-owned copy of the first matching state.
	FoundState *State
	// Trace is the replayed path to FoundState.
	Trace []TraceStep
	// Stats is the shared exploration effort of the whole query set.
	Stats Stats

	qs queryState
}

// NewReachQuery returns a reach-predicate query for one RunQueries call.
func NewReachQuery(pred func(*State) bool) *ReachQuery {
	return &ReachQuery{Pred: pred}
}

func (q *ReachQuery) prepare(int)                 {}
func (q *ReachQuery) visit(_ int, s *State) bool  { return q.Pred(s) }
func (q *ReachQuery) onDeadlock(int, *State) bool { return false }
func (q *ReachQuery) state() *queryState          { return &q.qs }

func (q *ReachQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	q.Stats = stats
	q.Found = q.qs.done.Load()
	q.FoundState = q.qs.found.Load()
	var err error
	q.Trace, err = q.qs.completionTrace(c, logs)
	return err
}

// SupClockQuery computes the supremum of Clock over every reachable state
// satisfying Cond (the single-pass WCRT measurement). It completes early
// only when the clock is extrapolated to infinity — nothing larger can be
// learned — recording a witness to the first unbounded state.
type SupClockQuery struct {
	Clock ta.ClockID
	Cond  func(*State) bool

	// Result carries the supremum exactly as Checker.SupClock reports it;
	// its Stats are the shared exploration effort of the whole query set.
	Result SupResult

	accs perWorker[supAcc]
	qs   queryState
}

// NewSupClockQuery returns a clock-supremum query for one RunQueries call.
func NewSupClockQuery(clock ta.ClockID, cond func(*State) bool) *SupClockQuery {
	return &SupClockQuery{Clock: clock, Cond: cond}
}

func (q *SupClockQuery) prepare(workers int) {
	q.accs = make(perWorker[supAcc], workers)
	for w := range q.accs {
		q.accs.at(w).max = dbm.LT(0)
	}
}

func (q *SupClockQuery) visit(w int, s *State) bool {
	if !q.Cond(s) {
		return false
	}
	acc := q.accs.at(w)
	acc.seen = true
	b := s.Zone.Sup(int(q.Clock))
	if b == dbm.Infinity {
		return true // nothing larger can be learned; complete with a witness
	}
	if b > acc.max {
		acc.max = b
	}
	return false
}

func (q *SupClockQuery) onDeadlock(int, *State) bool { return false }
func (q *SupClockQuery) state() *queryState          { return &q.qs }

func (q *SupClockQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	out := SupResult{Max: dbm.LT(0), Stats: stats}
	for i := range q.accs {
		acc := q.accs.at(i)
		out.Seen = out.Seen || acc.seen
		if acc.max > out.Max {
			out.Max = acc.max
		}
	}
	if q.qs.done.Load() {
		out.Seen = true
		out.Unbounded = true
		var err error
		if out.Witness, err = q.qs.completionTrace(c, logs); err != nil {
			return err
		}
	}
	q.Result = out
	return nil
}

// DeadlockQuery asks whether any reachable state deadlocks; it completes at
// the first deadlocked state with a witness trace. Alone in a query set it
// stops the sweep there (Checker.CheckDeadlockFree's behavior); in a larger
// set the sweep keeps serving the remaining queries.
type DeadlockQuery struct {
	// Result carries the verdict exactly as Checker.CheckDeadlockFree
	// reports it; its Stats are the shared effort of the whole query set.
	Result DeadlockResult

	qs queryState
}

// NewDeadlockQuery returns a deadlock-freedom query for one RunQueries call.
func NewDeadlockQuery() *DeadlockQuery { return &DeadlockQuery{} }

func (q *DeadlockQuery) prepare(int)                 {}
func (q *DeadlockQuery) visit(int, *State) bool      { return false }
func (q *DeadlockQuery) onDeadlock(int, *State) bool { return true }
func (q *DeadlockQuery) state() *queryState          { return &q.qs }

func (q *DeadlockQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	q.Result = DeadlockResult{Stats: stats, Free: stats.Deadlocks == 0}
	var err error
	q.Result.Witness, err = q.qs.completionTrace(c, logs)
	return err
}

// RunQueries evaluates every query in ONE exploration of the zone graph.
// Each query reduces into per-worker state on the shared sweep and completes
// independently; when all queries have completed, the sweep short-circuits.
// Results land on the query values themselves; the returned Stats are the
// shared effort of the single exploration (each query's embedded Stats equal
// it). Queries are single-use.
//
// Workers > 1 runs the sweep on the work-stealing parallel frontier;
// predicates and conditions are then evaluated concurrently and must be safe
// for concurrent use, exactly like Explore visitors.
func (c *Checker) RunQueries(opts Options, queries ...Query) (Stats, error) {
	qs := make([]Query, 0, len(queries))
	for i, q := range queries {
		if q == nil {
			return Stats{}, fmt.Errorf("core: RunQueries: query %d is nil", i)
		}
		if q.state().used {
			return Stats{}, fmt.Errorf("core: RunQueries: query %d was already run; queries are single-use", i)
		}
		qs = append(qs, q)
	}
	res, err := c.explore(opts, qs)
	return res.Stats, err
}
