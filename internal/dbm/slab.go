package dbm

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the package's one allocation path for bound matrices and
// packed payloads: nothing else in internal/dbm or internal/core calls make
// for either (CI's lint job checks it). The memory of a slab comes from the
// build's one slab source: slab_mmap.go (anonymous mappings, outside the Go
// heap) or slab_heap.go (no Mmap on the platform, or a race build), chosen by
// build constraints; the same job keeps Mmap and Munmap inside the first.

// slabBytes is the size of one slab. A sweep's smallest working set is one
// slab, so the size is what a twenty-state design-space variant keeps
// resident; 256 KiB holds 67 matrices of 22 clocks or 910 of 6, which is
// already three orders of magnitude fewer allocations than one per zone.
const (
	slabBytes = 256 << 10
	slabWords = slabBytes / 8
	// carveMax is the largest piece cut out of a slab. A bigger request
	// (more than 64 clocks at full width) would leave up to its own size
	// unused at the end of every slab, and at 32 KiB apiece the heap's cost
	// per object no longer matters, so it is allocated on its own.
	carveMax = slabWords / 8
)

// slab is raw pointer-free memory; it carries no structure between owners.
// It is an array of Bound so that matrices are carved without a conversion
// and payloads start 8-byte aligned. Its memory comes from newSlab and goes
// back through freeSlab, the build's slab source; nothing in this file
// depends on which one that is.
type slab [slabWords]Bound

// slabCache holds the slabs no sweep owns, process-wide: exactly the set
// released last. Release swaps the set it is handed for what was cached and
// frees that, so an idle process keeps at most the last released set, a
// process running sweeps back to back hands each one its predecessor's
// touched pages, and there is nothing to configure: no size, no timer, no
// collector hook. If a workload's resident set suffers, change slabBytes; do
// not add a cap, option, flag or environment variable.
var slabCache struct {
	mu   sync.Mutex
	free []*slab // taken from the end
}

// Slab accounting, in bytes: what the slab source holds mapped, what sets
// hold, what the cache holds. They are the only view of zone memory left once
// slabs are mapped — runtime.MemStats and heap profiles no longer contain it.
var slabMapped, slabInUse, slabCached atomic.Int64

// SlabStats reports the process's slab memory in bytes: mapped is what the
// slab source currently holds from the operating system, inUse what live sets
// have taken, cached what the last Release left for the next owner. With
// mapped slabs, mapped == inUse + cached; slabs on the Go heap (every slab of
// a build without mappings, one that stood in for a failed mapping) count in
// inUse and cached only, so inUse + cached - mapped is what the collector
// still sees.
func SlabStats() (mapped, inUse, cached int64) {
	return slabMapped.Load(), slabInUse.Load(), slabCached.Load()
}

// takeSlab returns a slab no one else owns, cached if there is one.
func takeSlab() *slab {
	c := &slabCache
	c.mu.Lock()
	slabInUse.Add(slabBytes)
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return newSlab()
	}
	sl := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	slabCached.Add(-slabBytes)
	c.mu.Unlock()
	return sl
}

// giveSlabs makes released the cache's contents, frees what the cache held
// before and returns that slice, emptied, for the caller to reuse.
func giveSlabs(released []*slab) []*slab {
	c := &slabCache
	c.mu.Lock()
	old := c.free
	c.free = released
	slabInUse.Add(-int64(len(released)) * slabBytes)
	slabCached.Add(int64(len(released)-len(old)) * slabBytes)
	c.mu.Unlock()
	for i, sl := range old {
		freeSlab(sl)
		old[i] = nil
	}
	return old[:0]
}

// Slabs is the slab set of one owner — for the explorer, one sweep. Pools
// attached to it (Slabs.Pool, Slabs.CompactPool) carve their matrices and
// payloads out of its slabs instead of allocating each one, and Release hands
// every slab back to the process-wide cache for the next owner, of whatever
// dimension and packing width. Why slabs and not a sync.Pool of matrices: a
// cache of typed objects serves one dimension and one width, and the callers
// of this package run models of every dimension back to back (the benchmark's
// variants workload alone has 20,000); raw slabs serve all of them from one
// cache.
//
// Carving is safe for concurrent use (a sweep's two zone pools — the
// admitting loop's and its lookahead helper's — and its store's compact pool
// share one set); it takes the set's lock once per matrix or payload a
// free list could not supply, which is rare next to the work done on one.
//
// Ownership: the set, and after Release the cache, is what keeps carved
// memory in existence — a matrix or payload carved from a slab does not. A
// mapped slab is not Go memory, so no reference to a piece of it holds it:
// after Release the next owner overwrites the piece, and after the Release
// that follows (of any set, anywhere in the process) the slab is unmapped and
// reading the piece faults — it does not read stale bytes. The owner must
// therefore release only when nothing carved is referenced any more, and must
// never let carved memory reach a caller that outlives it — such values are
// heap copies (DBM.Copy, the zero Pool). Released memory has unspecified
// contents; every consumer fully initializes what it carves (Pool.Get's
// contract, EncodeCompact).
//
// The zero value is an empty set ready for use. A nil *Slabs allocates every
// piece from the heap, which is what standalone pools do.
type Slabs struct {
	mu   sync.Mutex
	held []*slab
	// used counts the words carved from the last slab of held.
	used int
}

// heap is the nil set, for values that belong to no sweep: each piece is its
// own heap allocation, zeroed, and lives as long as it is referenced.
var heap *Slabs

// bounds returns n bounds with unspecified contents, capacity n.
func (s *Slabs) bounds(n int) []Bound {
	if s == nil || n > carveMax {
		return make([]Bound, n)
	}
	s.mu.Lock()
	if len(s.held) == 0 || s.used+n > slabWords {
		s.held = append(s.held, takeSlab())
		s.used = 0
	}
	b := s.held[len(s.held)-1][s.used : s.used+n : s.used+n]
	s.used += n
	s.mu.Unlock()
	return b
}

// compact returns an n-byte payload buffer with unspecified contents,
// capacity n, 8-byte aligned: the byte view of whole bounds.
func (s *Slabs) compact(n int) Compact {
	w := s.bounds((n + 7) / 8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// Release makes the set's slabs the process-wide cache and frees the slabs
// cached before. The set is empty afterwards and may be used again; releasing
// an empty set leaves the cache as it is. See the type comment for when an
// owner may call it.
func (s *Slabs) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.held) == 0 {
		return
	}
	if poisonReleased.Load() {
		for _, sl := range s.held {
			for j := range sl {
				sl[j] = poison
			}
		}
	}
	s.held, s.used = giveSlabs(s.held), 0
}

// poison is what PoisonReleased writes over released slabs: as a Bound it is
// a huge negative constant no canonical zone holds, as payload bytes a width
// code no Compact has.
const poison = Bound(-0x2152411021524111) // 0xDEADBEEFDEADBEEF

// poisonByte is the byte CompactPool.Put fills a recycled payload with under
// PoisonReleased: a width code no Compact has, and as packed bounds nothing a
// canonical zone decodes to (the diagonal turns negative).
const poisonByte = 0xDE

var poisonReleased atomic.Bool

// PoisonReleased makes Release overwrite every slab with a sentinel before
// caching it, and CompactPool.Put every payload it takes back, so that a
// value still aliasing released memory is corrupted at once and
// deterministically, not whenever a later sweep or admission happens to reuse
// the same bytes. For tests; nothing on a production path turns it on.
func PoisonReleased(on bool) { poisonReleased.Store(on) }
