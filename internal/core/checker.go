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
	// A bounded result carries one only when SupClockQuery.Witness was set
	// and some state satisfied the condition: a trace to the first admitted
	// state whose clock bound is Max, strictness included.
	Witness []TraceStep
}

// supAcc is a SupClockQuery's running supremum. Its zero value is the
// start: max is dbm.LT(0), below every clock value.
type supAcc struct {
	max  dbm.Bound
	seen bool
	ref  int64 // parent-log ref of the first state admitted at max; set once seen
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
