package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// flightCache is a bounded content-addressed cache with singleflight
// semantics: the first caller of an absent key computes the value while every
// concurrent caller of the same key waits for that one computation, so a
// thundering herd of identical requests costs exactly one parse, compile, or
// exploration. Values are retained LRU up to max entries; errors are never
// cached (the next caller retries).
//
// Ownership rule: cached values are shared by every caller and must be
// immutable after construction. The three caches of the server hold parsed
// systems, finalized networks, and compiled sets — all read-only after their
// constructors return, which is what makes concurrent analyses against one
// cached value sound.
type flightCache[V any] struct {
	mu      sync.Mutex
	max     int
	items   map[string]*list.Element // of *cacheEntry[V]
	order   *list.List               // front = most recently used
	flights map[string]*flight[V]

	hits   atomic.Int64 // served from cache or joined an in-flight call
	misses atomic.Int64 // computed fresh
}

type cacheEntry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightCache[V any](max int) *flightCache[V] {
	return &flightCache[V]{
		max:     max,
		items:   make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight[V]),
	}
}

// do returns the value for key, computing it with fn at most once across all
// concurrent callers. shared reports whether this caller got a cached or
// joined value rather than paying for the computation itself.
func (c *flightCache[V]) do(key string, fn func() (V, error)) (val V, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		val = el.Value.(*cacheEntry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return val, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.hits.Add(1)
		return f.val, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	f.val, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: f.val})
		for len(c.items) > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry[V]).key)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// len reports the currently retained entries.
func (c *flightCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
