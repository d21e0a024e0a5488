package core

import "repro/internal/dbm"

// SupResult is the outcome of a SupClockQuery.
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
	// Witness is a trace to the first unbounded state when Unbounded is set.
	// For bounded results no witness is recorded (the supremum emerges from
	// the whole sweep, not one stop state); run a ReachQuery against the
	// computed bound to materialize one, as arch.CompiledSet.Witness does.
	Witness []TraceStep
}

// supAcc is a SupClockQuery's running supremum. Its zero value is the
// start: max is dbm.LT(0), below every clock value.
type supAcc struct {
	max  dbm.Bound
	seen bool
}

// DeadlockResult is the outcome of a DeadlockQuery.
type DeadlockResult struct {
	Stats
	// Free reports whether no reachable state deadlocks. Inconclusive when
	// the exploration was truncated.
	Free bool
	// Witness is a trace to the first deadlocked state when Free is false.
	Witness []TraceStep
}
