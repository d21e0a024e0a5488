package core

import (
	"fmt"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the query-set layer of the engine: instead of one
// exploration per question, any number of queries attach to a *single* sweep
// of the zone graph and reduce over it. The paper answers each
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
// The explorer counts the queries still live; the completion that drops the
// count to zero ends the sweep, so a one-element query set stops where a
// single-question search would: a reach query at its first match.
//
// # Ownership rules (extends the protocol in store.go / explore.go)
//
//   - Reduction state: a query that reduces keeps one accumulator, which
//     visit and onDeadlock update on the admitting goroutine — the only one
//     that calls them — and finish reads strictly after the loop has
//     returned. The visitor path never takes a lock.
//   - States are NOT retained: when a query completes on a state that the
//     sweep still needs (other queries live), the state will be recycled, so
//     completion captures a caller-owned clone (cloneState) plus the state's
//     parent-log ref. Traces are replayed from the log after the loop has
//     returned.
//   - A Query is single-use: it carries its results after the run. Reusing
//     one in a second RunQueries call is an error.

// queryState is the completion bookkeeping shared by every query kind,
// written by the admitting loop and read by finish once it has returned.
type queryState struct {
	// done is set once, when the query has learned everything it needs from
	// the sweep. The loop checks it to stop feeding the query.
	done bool
	// ref is the parent-log ref of the completing state; noRef (set by
	// explore) while the query has not completed.
	ref int64
	// found is a caller-owned clone of the completing state.
	found *State
	// used guards against attaching the same query to two runs.
	used bool
}

// Query is one measurement riding a query-set exploration (RunQueries). The
// concrete kinds — ReachQuery, SupClockQuery, DeadlockQuery — are the only
// way to ask the checker a question: a safety property AG p is the
// ReachQuery of ¬p. The interface is sealed: its methods are unexported
// because they are the engine-facing half of the ownership protocol above.
//
// Reduction ownership, which every kind keeps and the engine relies on:
//
//   - A query that reduces owns one accumulator (SupClockQuery's supAcc).
//     visit(s) and onDeadlock(s) update it on the admitting goroutine, and
//     finish reads it once the loop has returned — NEVER a lock on the
//     visitor path.
//   - Completion sets queryState.done once (explorer.completeQuery); the
//     loop feeds no done query again. Completion captures a caller-owned
//     clone of the state plus its parent-log ref, never the live state: that
//     one is recycled if the sweep goes on.
//   - The explorer's count of live queries ends the sweep when it reaches
//     zero, so a set of one stops at its first answer: a reach or deadlock
//     query at its first witness, a supremum query at an unbounded clock.
//   - Every kind may complete with a witness, so parent logs exist exactly
//     when the set is non-empty. Traces are replayed strictly after the
//     loop has returned, from refs, once per completed query.
type Query interface {
	// visit observes one newly admitted state; returning true completes the
	// query. It must not retain s or its zone.
	visit(s *State) bool
	// onDeadlock observes a deadlocked (successor-less) state; same
	// contract as visit.
	onDeadlock(s *State) bool
	// state returns the shared completion bookkeeping.
	state() *queryState
	// finish materializes results; it runs strictly after the loop has
	// returned.
	finish(c *Checker, logs *parentLogs, stats Stats) error
}

// cloneState returns a fresh caller-owned copy of s (discrete vectors and
// zone), safe to retain after the exploration's pools are recycled.
func cloneState(s *State) *State {
	ns := newState(nil, len(s.Locs), len(s.Vars))
	copy(ns.Locs, s.Locs)
	copy(ns.Vars, s.Vars)
	if s.Zone != nil {
		ns.Zone = s.Zone.Copy()
	}
	return ns
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

func (q *ReachQuery) visit(s *State) bool    { return q.Pred(s) }
func (q *ReachQuery) onDeadlock(*State) bool { return false }
func (q *ReachQuery) state() *queryState     { return &q.qs }

func (q *ReachQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	q.Stats = stats
	q.Found = q.qs.done
	q.FoundState = q.qs.found
	var err error
	q.Trace, err = c.replayTrace(logs, q.qs.ref)
	return err
}

// SupClockQuery computes the supremum of Clock over every reachable state
// satisfying Cond (the single-pass WCRT measurement). It completes early
// only when the clock is extrapolated to infinity — nothing larger can be
// learned — recording a witness to the first unbounded state. With Witness
// set, a bounded result carries a witness too: the trace to the first
// admitted state whose clock bound is the supremum, replayed from the same
// sweep's parent log.
//
// It replaces the paper's binary search over Property 1: because an
// observer's "seen" location is committed, no delay is folded into those
// states, so the zone's upper bound on the measuring clock is exactly the
// response time, and AG(Cond → Clock < C) holds exactly when the supremum is
// below (≤ C). The clock's maximal constant (ta.Network.EnsureMaxConst)
// must be at least the largest value of interest; beyond it the result
// degrades to Unbounded.
type SupClockQuery struct {
	Clock ta.ClockID
	Cond  func(*State) bool
	// Witness asks for a bounded result's witness. It is opt-in because the
	// replay re-fires the path and materializes a state per step; an
	// unbounded result always carries its witness.
	Witness bool

	// Result carries the supremum; its Stats are the shared exploration
	// effort of the whole query set.
	Result SupResult

	acc supAcc
	qs  queryState
}

// NewSupClockQuery returns a clock-supremum query for one RunQueries call.
func NewSupClockQuery(clock ta.ClockID, cond func(*State) bool) *SupClockQuery {
	return &SupClockQuery{Clock: clock, Cond: cond}
}

func (q *SupClockQuery) visit(s *State) bool {
	if !q.Cond(s) {
		return false
	}
	q.acc.seen = true
	b := s.Zone.Sup(int(q.Clock))
	if b == dbm.Infinity {
		return true // nothing larger can be learned; complete with a witness
	}
	if b > q.acc.max {
		q.acc.max, q.acc.ref = b, s.ref
	}
	return false
}

func (q *SupClockQuery) onDeadlock(*State) bool { return false }
func (q *SupClockQuery) state() *queryState     { return &q.qs }

func (q *SupClockQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	done := q.qs.done
	q.Result = SupResult{Stats: stats, Seen: q.acc.seen || done, Max: q.acc.max, Unbounded: done}
	ref := q.qs.ref // the first unbounded state's, or noRef
	if q.Witness && q.acc.seen && !done {
		ref = q.acc.ref
	}
	var err error
	q.Result.Witness, err = c.replayTrace(logs, ref)
	return err
}

// DeadlockQuery asks whether any reachable state deadlocks; it completes at
// the first deadlocked state with a witness trace. Alone in a query set it
// stops the sweep there; in a larger set the sweep keeps serving the
// remaining queries. Because stored states are closed under delay, a state
// without an action successor admits no escape at any later time point
// (UPPAAL's "deadlock" property).
type DeadlockQuery struct {
	// Result carries the verdict; its Stats are the shared effort of the
	// whole query set.
	Result DeadlockResult

	qs queryState
}

// NewDeadlockQuery returns a deadlock-freedom query for one RunQueries call.
func NewDeadlockQuery() *DeadlockQuery { return &DeadlockQuery{} }

func (q *DeadlockQuery) visit(*State) bool      { return false }
func (q *DeadlockQuery) onDeadlock(*State) bool { return true }
func (q *DeadlockQuery) state() *queryState     { return &q.qs }

func (q *DeadlockQuery) finish(c *Checker, logs *parentLogs, stats Stats) error {
	q.Result = DeadlockResult{Stats: stats, Free: stats.Deadlocks == 0}
	var err error
	q.Result.Witness, err = c.replayTrace(logs, q.qs.ref)
	return err
}

// RunQueries evaluates every query in ONE exploration of the zone graph.
// Each query reduces over the shared sweep and completes independently; when
// all queries have completed, the sweep short-circuits. Results land on the
// query values themselves; the returned Stats are the shared effort of the
// single exploration (each query's embedded Stats equal it). Queries are
// single-use.
//
// Every answer — verdicts, suprema, witnesses, Stats counts — is a function
// of the network and of Options' Order, Seed, MaxStates and budgets only:
// Options.Workers and GOMAXPROCS change none of it. Predicates and
// conditions are evaluated on the calling goroutine, one state at a time.
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
