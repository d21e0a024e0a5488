package core

import "sync/atomic"

// wsDeque is a Chase–Lev work-stealing deque of waiting nodes. The owning
// worker pushes and pops at the bottom (LIFO, cache-friendly depth-first
// expansion); idle workers steal from the top (FIFO, coarse-grained units
// near the root of the search tree). The implementation follows Chase &
// Lev, "Dynamic Circular Work-Stealing Deque" (SPAA 2005); Go's atomic
// operations are sequentially consistent, so the weak-memory fences of the
// original are implicit.
//
// push and pop must only be called by the owner goroutine; steal may be
// called by any goroutine.
type wsDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[wsRing]
}

// wsRing is a fixed-size power-of-two circular buffer. Slots are atomic
// pointers so a concurrent steal never races with the owner growing the
// ring.
type wsRing struct {
	mask int64
	slot []atomic.Pointer[waiting]
}

func newWSRing(capacity int64) *wsRing {
	return &wsRing{mask: capacity - 1, slot: make([]atomic.Pointer[waiting], capacity)}
}

func (r *wsRing) get(i int64) *waiting    { return r.slot[i&r.mask].Load() }
func (r *wsRing) put(i int64, n *waiting) { r.slot[i&r.mask].Store(n) }
func (r *wsRing) grow(top, bottom int64) *wsRing {
	n := newWSRing((r.mask + 1) * 2)
	for i := top; i < bottom; i++ {
		n.put(i, r.get(i))
	}
	return n
}

// newWSDeque returns a deque whose ring starts at the given capacity, which
// must be a power of two; the ring doubles on overflow.
func newWSDeque(capacity int64) *wsDeque {
	d := &wsDeque{}
	d.ring.Store(newWSRing(capacity))
	return d
}

// push appends n at the bottom. Owner only.
func (d *wsDeque) push(n *waiting) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		r = r.grow(t, b)
		d.ring.Store(r)
	}
	r.put(b, n)
	d.bottom.Store(b + 1)
}

// pop removes and returns the most recently pushed node, or nil when the
// deque is empty. Owner only.
func (d *wsDeque) pop() *waiting {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty shape.
		d.bottom.Store(t)
		return nil
	}
	n := r.get(b)
	if t == b {
		// Last element: race with thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			n = nil // a thief got it
		}
		d.bottom.Store(t + 1)
	}
	return n
}

// steal removes and returns the oldest node, or nil when the deque is
// empty or the steal lost a race (callers just move on to another victim).
func (d *wsDeque) steal() *waiting {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	r := d.ring.Load()
	n := r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return n
}
