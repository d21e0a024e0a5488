package core

import (
	"testing"

	"repro/internal/ta"
)

// DiffExplore compares the successor engine with the index-free reference on
// every admitted state of net (succ_index_test.go), for the external test
// package's case-study networks.
func DiffExplore(t testing.TB, net *ta.Network, maxStates int) {
	t.Helper()
	diffExplore(t, net, maxStates)
}

// ReplayTraceByReference re-fires trace through the index-free reference
// (succ_ref_test.go) instead of the successor engine: step 0 must be c's
// initial state and every later step a reference successor of its
// predecessor, with the recorded label and symbolic state.
func ReplayTraceByReference(t testing.TB, c *Checker, trace []TraceStep) {
	t.Helper()
	replayTrace(t, c, trace, func(ctx *succCtx, s *State) ([]succ, error) {
		return refSuccessors(c.eng, ctx, s)
	})
}
