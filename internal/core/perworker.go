package core

import "sync/atomic"

// perWorker is the engine's one spelling of "a slot per worker that only its
// owner writes": the run's worker cells (workerCell, below), the query
// accumulators, the parent logs, and the passed store's shards (owned by
// whoever holds the shard rather than by one worker) are all perWorker[T]
// for their own payload T. Readers on other goroutines are the
// payload's business (atomics, or reading only after the worker barrier);
// what this type guarantees is that two slots never share a cache line, so
// one owner's writes never invalidate a neighbour's line.
type perWorker[T any] []slot[T]

// slot trails its payload with a full cache line, which keeps the payloads
// of neighbouring slots at least 64 bytes apart whatever T's size and
// wherever the allocator puts the slice — nothing to recompute when a
// payload gains a field.
type slot[T any] struct {
	v T
	_ [64]byte
}

// at returns worker w's payload.
func (p perWorker[T]) at(w int) *T { return &p[w].v }

// workerCell is everything one worker publishes about its run, and the only
// place a run's expansion counts, steals and pooled zone bytes leave the
// worker. Two write paths, never mixed: the counters are single-writer
// atomics written with plain stores — never a read-modify-write, never a
// lock on the visitor path — and every reader (the run's final Stats,
// Monitor.Snapshot, the MaxBytes check, the profile) sums the run's cells.
// Event-scoped telemetry (a job, a dispatch) is the other path: obs's
// Counter.Add and Histogram.Observe, which are RMWs and stay off the
// per-state path.
//
// The worker stores its loop locals into popped, transitions, deadlocks and
// zoneBytes at the between-expansions checkpoint (every abortCheckMask+1
// expansions) and once more when it exits, so a finished run's cells are
// exact and a live one's lag by at most one checkpoint interval. steals is
// bumped by the work-stealing frontier's pop on the same worker, so it too
// has one writer. ring is the worker's profile samples: plain memory,
// appended only by the owner and read only after the worker barrier.
type workerCell struct {
	popped, transitions, deadlocks atomic.Int64
	// steals counts states this worker has taken from other workers' deques.
	steals atomic.Int64
	// zoneBytes is the worker's pooled matrix allocation (pool gets − reuses,
	// times one matrix's bytes).
	zoneBytes atomic.Int64
	ring      profRing
}

// publish stores the worker's loop locals; single writer per cell.
func (c *workerCell) publish(popped, transitions, deadlocks, zoneBytes int64) {
	c.popped.Store(popped)
	c.transitions.Store(transitions)
	c.deadlocks.Store(deadlocks)
	c.zoneBytes.Store(zoneBytes)
}

// cellTotals is the sum of a run's worker cells.
type cellTotals struct {
	popped, transitions, deadlocks, steals, zoneBytes int64
}

// sumCells adds up every worker's cell. Safe from any goroutine while the
// run is live (a relaxed view) and exact after the worker barrier.
func sumCells(cells perWorker[workerCell]) cellTotals {
	var t cellTotals
	for w := range cells {
		c := cells.at(w)
		t.popped += c.popped.Load()
		t.transitions += c.transitions.Load()
		t.deadlocks += c.deadlocks.Load()
		t.steals += c.steals.Load()
		t.zoneBytes += c.zoneBytes.Load()
	}
	return t
}
