package core

import "sync/atomic"

// slot trails its payload with a full cache line, which keeps the payloads
// of neighbouring slots at least 64 bytes apart whatever T's size and
// wherever the allocator puts them — nothing to recompute when a payload
// gains a field. Two goroutines that each poll what the other writes keep
// their words in slots of their own, so one side's writes never invalidate
// the line the other side reads: the lookahead ring's counters and the
// caller's tally are slot[T] (explore.go, "Lookahead").
type slot[T any] struct {
	v T
	_ [64]byte
}

// workerCell is everything the admitting loop publishes about its run, and
// the only place a run's expansion counts and pooled zone bytes leave the
// loop. Two write paths, never mixed: the counters are single-writer atomics
// written with plain stores — never a read-modify-write, never a lock on the
// visitor path — and every reader (the run's final Stats, Monitor.Snapshot,
// the MaxBytes check, the profile) loads them. Event-scoped telemetry (a
// job, a dispatch) is the other path: obs's Counter.Add and
// Histogram.Observe, which are RMWs and stay off the per-state path.
//
// The loop stores its locals into popped, transitions, deadlocks and
// zoneBytes at the between-expansions checkpoint (every abortCheckMask+1
// expansions) and once more when it exits, so a finished run's cell is exact
// and a live one's lags by at most one checkpoint interval. ring is the
// run's profile samples: plain memory, appended only by the loop and read
// only after it has returned.
type workerCell struct {
	// popped, transitions, deadlocks and zoneBytes are atomics for a
	// Monitor's Snapshot, which loads them on its own goroutine while the
	// loop runs.
	popped, transitions, deadlocks atomic.Int64
	// zoneBytes is the run's pooled matrix allocation (pool gets − reuses,
	// the helper's included, times one matrix's bytes).
	zoneBytes atomic.Int64
	// callerWaits and helperIdle are the lookahead's stage-bound counts
	// ("Lookahead" in explore.go), each stored once, by the goroutine that
	// counted it, when the helper stops: zero for a run that never engaged it.
	// helperIdle is written on the helper goroutine.
	callerWaits, helperIdle atomic.Int64
	ring                    profRing
}

// publish stores the loop's locals; single writer.
func (c *workerCell) publish(popped, transitions, deadlocks, zoneBytes int64) {
	c.popped.Store(popped)
	c.transitions.Store(transitions)
	c.deadlocks.Store(deadlocks)
	c.zoneBytes.Store(zoneBytes)
}
