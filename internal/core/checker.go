package core

import (
	"fmt"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// parallelism is the single place Options.Workers is interpreted: it reports
// whether the unified explorer runs on the work-stealing parallel frontier
// and with how many workers. Every query kind routes through it; parallel
// runs reconstruct their traces from the per-worker parent logs
// (explore.go).
func (o Options) parallelism() (workers int, parallel bool) {
	if o.Workers <= 1 {
		return 1, false
	}
	return o.Workers, true
}

// Property is a state predicate to be verified invariantly (AG Holds).
type Property struct {
	Desc  string
	Holds func(*State) bool
}

// SafetyResult is the outcome of CheckSafety.
type SafetyResult struct {
	Stats
	// Holds reports whether the property held on every explored state. When
	// the exploration was truncated, Holds true is inconclusive.
	Holds bool
	// Counterexample is a trace to a violating state when Holds is false.
	Counterexample []TraceStep
}

// CheckSafety verifies AG prop.Holds by exhaustive symbolic reachability,
// returning a counterexample trace on violation. With Options.Workers > 1
// the exploration is parallel and prop.Holds is evaluated concurrently —
// pure predicates (the normal case) need no further care.
func (c *Checker) CheckSafety(prop Property, opts Options) (SafetyResult, error) {
	res, err := c.Explore(opts, func(s *State) bool { return !prop.Holds(s) })
	if err != nil {
		return SafetyResult{}, err
	}
	return SafetyResult{
		Stats:          res.Stats,
		Holds:          !res.Found,
		Counterexample: res.Trace,
	}, nil
}

// Reachable reports whether a state satisfying pred is reachable, with a
// witness trace. Workers > 1 explores in parallel; pred is then evaluated
// concurrently.
func (c *Checker) Reachable(pred func(*State) bool, opts Options) (bool, []TraceStep, Stats, error) {
	res, err := c.Explore(opts, pred)
	if err != nil {
		return false, nil, Stats{}, err
	}
	return res.Found, res.Trace, res.Stats, nil
}

// SupResult is the outcome of SupClock.
type SupResult struct {
	Stats
	// Seen reports whether any state satisfied the condition.
	Seen bool
	// Max is the supremum bound of the clock over all condition states, with
	// exact strictness: (≤ v) means v is attained, (< v) means approached.
	Max dbm.Bound
	// Unbounded reports that the clock's upper bound was abstracted to
	// infinity by extrapolation in some condition state, i.e. the supremum
	// lies beyond the registered maximal constant (observation horizon).
	Unbounded bool
	// Witness is a trace to the first unbounded state when Unbounded is set,
	// on the sequential and the parallel path alike. For bounded results no
	// witness is recorded (the supremum emerges from the whole sweep, not
	// one stop state); use Reachable against the computed bound to
	// materialize one, as arch.WitnessForResult does.
	Witness []TraceStep
}

// supAcc is one worker's supremum accumulator.
type supAcc struct {
	max  dbm.Bound
	seen bool
}

// SupClock computes the supremum of clock over every reachable state
// satisfying cond. This is the single-pass alternative to the paper's manual
// binary search: because the observer's "seen" location is committed, no
// delay is folded into those states and the zone's upper bound on the
// measuring clock is exactly the response time of the measured event.
//
// It is a thin wrapper over a one-element query set (SupClockQuery): each
// worker reduces into its own accumulator and the results merge after the
// exploration barrier, so the hot visitor path is lock-free on the
// sequential and the parallel frontier alike. To measure several clocks from
// a single sweep, pass multiple SupClockQueries to RunQueries instead — that
// is what arch.AnalyzeAll does for whole requirement sets.
//
// The clock's maximal constant (ta.Network.EnsureMaxConst) must be at least
// the largest value of interest; beyond it the result degrades to Unbounded.
func (c *Checker) SupClock(clock ta.ClockID, cond func(*State) bool, opts Options) (SupResult, error) {
	q := NewSupClockQuery(clock, cond)
	_, err := c.RunQueries(opts, q)
	return q.Result, err
}

// BinarySearchResult is the outcome of BinarySearchWCRT.
type BinarySearchResult struct {
	// MinimalC is the least integer C in (lo, hi] for which
	// AG(cond → clock < C) holds.
	MinimalC int64
	// Holds reports whether any C ≤ hi satisfied the property; when false,
	// hi is a strict lower bound on the WCRT.
	Holds bool
	// Iterations counts model-checking runs performed.
	Iterations int
	// TotalStats accumulates effort over all runs.
	TotalStats Stats
}

// BinarySearchWCRT reproduces the paper's methodology for Property 1:
// find the smallest constant C in (lo, hi] for which AG(cond → clock < C)
// is satisfied. The WCRT then lies in [C-1, C).
//
// The paper re-model-checks per threshold; since the zone graph is identical
// across thresholds, this implementation explores it ONCE — a single
// supremum sweep — and answers every threshold of the bisection from the
// recorded bound: AG(cond → clock < C) holds exactly when the supremum over
// all cond-states is below (≤ C). The bisection itself runs on integers, so
// Iterations is now always 1 (one exploration) and TotalStats is that
// sweep's effort. MinimalC is bit-identical to the paper's per-threshold
// procedure by construction, because the per-state test it model-checked —
// Sup(clock) < (≤ C) — is evaluated against the same suprema.
func (c *Checker) BinarySearchWCRT(clock ta.ClockID, cond func(*State) bool,
	lo, hi int64, opts Options) (BinarySearchResult, error) {
	if lo < 0 || hi <= lo {
		return BinarySearchResult{}, fmt.Errorf("core: invalid binary search interval (%d, %d]", lo, hi)
	}
	sup, err := c.SupClock(clock, cond, opts)
	out := BinarySearchResult{Iterations: 1, TotalStats: sup.Stats}
	if err != nil {
		return out, err
	}
	// holds replays one threshold check of the paper's loop against the
	// sweep's supremum: AG(cond → clock < C) ⟺ no cond-state admits a
	// valuation with clock ≥ C ⟺ max Sup(clock) < (≤ C). An unbounded
	// supremum (beyond the extrapolation horizon) fails every threshold,
	// exactly as the per-threshold runs would have.
	holds := func(C int64) bool {
		if !sup.Seen {
			return true
		}
		if sup.Unbounded {
			return false
		}
		return sup.Max < dbm.LE(C)
	}
	if sup.Truncated {
		// A truncated sweep's supremum is a lower bound on the true one. It
		// can still definitively REFUTE — some admitted state already
		// reaches hi, the counterexample the per-threshold procedure would
		// have stopped at within the same budget — but it cannot verify.
		if !holds(hi) {
			out.Holds = false
			return out, nil
		}
		return out, fmt.Errorf("core: binary search exploration truncated at %d states", sup.Stored)
	}
	if !holds(hi) {
		out.Holds = false
		return out, nil
	}
	out.Holds = true
	// Bisection invariant: the property is assumed to fail at lo (lo is an
	// exclusive lower bound supplied by the caller, typically 0) and has
	// been verified at hi. Monotonicity in C makes the search exact.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if holds(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	out.MinimalC = hi
	return out, nil
}

// DeadlockResult is the outcome of CheckDeadlockFree.
type DeadlockResult struct {
	Stats
	// Free reports whether no reachable state deadlocks. Inconclusive when
	// the exploration was truncated.
	Free bool
	// Witness is a trace to the first deadlocked state when Free is false.
	Witness []TraceStep
}

// CheckDeadlockFree explores the zone graph looking for states with no
// action successor (UPPAAL's "deadlock" property). Because stored states are
// closed under delay, a state without successors admits no escape at any
// future time point. It is a thin wrapper over a one-element query set
// (DeadlockQuery), so alone it stops at the first deadlock exactly as
// before, while the same query inside a larger RunQueries set lets the
// sweep keep serving the other queries. With Workers > 1 the search is
// parallel; "first" then means the first deadlock any worker reaches, and
// the witness trace is stitched from the parent logs like every other
// parallel trace.
func (c *Checker) CheckDeadlockFree(opts Options) (DeadlockResult, error) {
	q := NewDeadlockQuery()
	_, err := c.RunQueries(opts, q)
	if err != nil {
		return DeadlockResult{}, err
	}
	return q.Result, nil
}
