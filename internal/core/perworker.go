package core

// perWorker is the engine's one spelling of "a slot per worker that only its
// owner writes": the monitor's published counters, the memory budget's
// cells, the frontier's steal counts, the profiler's sample rings, the query
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
