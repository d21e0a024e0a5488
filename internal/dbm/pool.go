package dbm

// Pool is a free list of equal-dimension DBMs that lets hot exploration
// loops recycle matrices instead of allocating one per candidate successor.
// What the free list cannot supply is carved out of the pool's slab set
// (slab.go) — the one place a matrix's bounds are allocated. The free list
// recycles within one sweep; between sweeps it is the slabs that are reused,
// not the matrices: a process-wide sync.Pool of *DBM would serve one
// dimension, and callers run models of every dimension (and the store packs
// at three widths) back to back, so the cache holds raw slabs that any of
// them can carve (see Slabs).
//
// A Pool is NOT safe for concurrent use: each goroutine of an exploration —
// the admitting loop, and a breadth-first sweep's lookahead helper — owns its
// own Pool. Matrices may migrate between pools (a DBM
// obtained from one pool may be released into another of the same
// dimension); a Pool only hands out matrices of its own dimension and
// silently drops mismatched ones on Put.
//
// Ownership protocol (see the store type comment in internal/core for the
// explorer-side invariants): a DBM obtained from Get is exclusively owned by
// the caller until it is either released with Put or handed off to a
// longer-lived owner (a stored state, a passed-store entry). After Put the
// caller must not retain the pointer — the matrix will be reused and
// overwritten. A matrix from a pool attached to a slab set must additionally
// not be referenced after the set's Release: the next owner of the slab
// overwrites it, and the release after that unmaps it (see Slabs). Only a
// standalone pool (NewPool) hands out matrices that may outlive it.
//
// The free list is a heap slice even in a pool of a slab set, unlike
// CompactPool's lists: Put takes any matrix of the pool's dimension, a heap
// one (NewPool's, DBM.Copy's, Compact.Decode's) included — internal/core's
// putState hands its ctx's pool the zone of whatever State it recycles — and
// a carved list, which the collector never scans, would not keep such a
// matrix alive. It costs about 1 KB a sweep.
type Pool struct {
	dim   int
	slabs *Slabs // nil: standalone, every matrix is its own heap allocation
	free  []*DBM
	// hdrs is what is left of the last block of headers the set handed out
	// (Slabs.headers).
	hdrs []DBM

	// gets/reuses instrument the pool for tests and diagnostics.
	gets   int
	reuses int
}

// NewPool returns an empty standalone pool handing out DBMs of the given
// dimension, each allocated from the heap.
func NewPool(dim int) *Pool { return heap.Pool(dim) }

// Pool returns an empty pool of the given dimension whose matrices are carved
// from s.
func (s *Slabs) Pool(dim int) *Pool {
	if dim < 1 {
		panic("dbm: pool dimension must include the reference clock")
	}
	return &Pool{dim: dim, slabs: s}
}

// Get returns a DBM of the pool's dimension with unspecified contents. The
// caller must fully initialize it (e.g. with CopyFrom or SetInit) before
// relying on any entry.
func (p *Pool) Get() *DBM {
	p.gets++
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		return d
	}
	if p.slabs == nil {
		return &DBM{dim: p.dim, m: heap.bounds(p.dim * p.dim)}
	}
	if len(p.hdrs) == 0 {
		p.hdrs = p.slabs.headers()
	}
	d := &p.hdrs[0]
	p.hdrs = p.hdrs[1:]
	d.dim, d.m = p.dim, p.slabs.bounds(p.dim*p.dim)
	return d
}

// Put releases a DBM back to the pool. nil and dimension-mismatched matrices
// are dropped, so callers can release unconditionally.
func (p *Pool) Put(d *DBM) {
	if d == nil || d.dim != p.dim {
		return
	}
	p.free = append(p.free, d)
}

// Stats reports how many Gets the pool served and how many of those reused a
// released matrix (the rest allocated).
func (p *Pool) Stats() (gets, reuses int) { return p.gets, p.reuses }

// ZoneBytes returns the in-memory size of one dim-dimensional matrix's bound
// storage — the unit memory-budget accounting multiplies allocation counts
// by (internal/core). Headers and free-list slots are ignored: the dim²
// bounds dominate at every realistic dimension.
func ZoneBytes(dim int) int64 { return int64(dim) * int64(dim) * 8 }
