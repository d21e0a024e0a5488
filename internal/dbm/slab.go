package dbm

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the package's one allocation path for bound matrices and
// packed payloads, and the one carve of a sweep's store structures (Carve,
// CarveSlice, CarveTail, and Grow for the lists that double): nothing else in
// internal/dbm or internal/core calls make for any of them (the rule "One
// allocation path for zones" in internal/rules checks it). The memory of a slab comes from the build's one
// slab source: slab_mmap.go (anonymous mappings, outside the Go heap) or
// slab_heap.go (no Mmap on the platform, or a race build), chosen by build
// constraints; the same rule keeps Mmap and Munmap inside the first.

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
	// per object no longer matters, so it is allocated on its own — and kept
	// by the set until Release (Slabs.big).
	carveMax = slabWords / 8
	// headerBlock is how many matrix headers a pool of a set takes from the
	// heap at once (Slabs.headers): an eighth of the allocations of one per
	// matrix, and a sweep of a few dozen states wastes at most seven.
	headerBlock = 8
)

// slab is raw memory; it carries no structure between owners. It is an array
// of Bound so that matrices are carved without a conversion and every piece
// starts 8-byte aligned. Its memory comes from newSlab and goes back through
// freeSlab, the build's slab source; nothing in this file depends on which
// one that is.
//
// The collector never scans a slab: a mapped one is not Go memory, a heap
// one is a pointer-free object. Pieces carved from it may still hold
// pointers (Carve), under one rule: carved memory points only into its own
// set — its slabs, or a heap piece the set keeps (a piece above carveMax, a
// block of matrix headers) — never at anything else the collector manages,
// which a pointer the collector cannot see would not keep alive: not a string
// or a heap object that merely happens to outlive the sweep. Such a piece is
// zeroed through its pointer-free view before its first typed store, so a
// write barrier never reads a stale word the previous owner left there as a
// pointer.
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
// payloads out of its slabs instead of allocating each one, the owner's own
// structures that live exactly as long (a sweep's store entries with their
// keys, record segments, bucket index, frontier and parent log) are carved by
// Carve, CarveSlice and CarveTail, and Release hands every slab back to the
// process-wide cache for the next owner, of whatever dimension and packing
// width. Why slabs and not a sync.Pool of
// matrices: a cache of typed objects serves one dimension and one width, and
// the callers of this package run models of every dimension back to back (the
// benchmark's variants workload alone has 20,000); raw slabs serve all of them
// from one cache.
//
// Carving is safe for concurrent use (a sweep's two zone pools — the
// admitting loop's and its lookahead helper's — and its store share one
// set); it takes the set's lock once per matrix or payload a free list could
// not supply and once per carved structure, which is rare next to the work
// done on one.
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
// contract, EncodeCompact), and Carve zeroes it first.
//
// Pieces larger than carveMax come from the heap, and the set keeps each of
// them until Release, exactly like a slab: the record that references a
// payload may itself be carved, and the collector, which never scans carved
// memory, would otherwise free the payload under it. The headers of the
// matrices the set's pools hand out are heap pieces the set keeps for the
// same reason (headers): a State carved by internal/core points at its
// zone's header. After Release such a piece is the collector's, not the
// cache's.
//
// The zero value is an empty set ready for use. A nil *Slabs allocates every
// piece from the heap, which is what standalone pools do.
type Slabs struct {
	mu   sync.Mutex
	held []*slab
	// used counts the words carved from the last slab of held.
	used int
	// big keeps the pieces larger than carveMax until Release (see above).
	big [][]Bound
	// hdrs keeps the blocks of matrix headers the set's pools hand out
	// (headers) until Release.
	hdrs [][]DBM
}

// heap is the nil set, for values that belong to no sweep: each piece is its
// own heap allocation, zeroed, and lives as long as it is referenced.
var heap *Slabs

// bounds returns n bounds with unspecified contents, capacity n.
func (s *Slabs) bounds(n int) []Bound {
	if s == nil {
		return make([]Bound, n)
	}
	if n > carveMax {
		b := make([]Bound, n)
		s.mu.Lock()
		s.big = append(s.big, b)
		s.mu.Unlock()
		return b
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

// headers returns a block of headerBlock zeroed matrix headers for a pool of
// the set. The headers are heap memory, and the set keeps every block until
// Release, as it keeps its big pieces: a header may be referenced only from
// carved memory (a State carved by internal/core holds its zone), which
// keeps nothing alive. They are not carved themselves, because a header must
// outlive the set: a matrix still held after Release has to read as its
// dimension and poisoned or unmapped bounds (PoisonReleased), not as
// whatever the slab's next owner carved over its header.
func (s *Slabs) headers() []DBM {
	b := make([]DBM, headerBlock)
	s.mu.Lock()
	s.hdrs = append(s.hdrs, b)
	s.mu.Unlock()
	return b
}

// compact returns an n-byte payload buffer with unspecified contents,
// capacity n, 8-byte aligned: the byte view of whole bounds.
func (s *Slabs) compact(n int) Compact {
	w := s.bounds((n + 7) / 8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// Carve returns a zeroed T carved from s, or new(T) from a nil set. The piece
// lives exactly as long as the set. The collector never scans it, so T may
// hold pointers only into s's own carved memory (the slab type comment): a
// pointer to anything else would not keep its target alive.
func Carve[T any](s *Slabs) *T {
	if s == nil {
		return new(T)
	}
	var t T
	return (*T)(s.zeroed(unsafe.Sizeof(t)))
}

// CarveSlice returns n zeroed Ts carved from s, or make([]T, n) from a nil
// set, under Carve's rule.
func CarveSlice[T any](s *Slabs, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	var t T
	return unsafe.Slice((*T)(s.zeroed(uintptr(n)*unsafe.Sizeof(t))), n)
}

// Grow returns a copy of list with room for at least as many elements again
// (eight at first), carved from s, or made on the heap from a nil set, under
// Carve's rule: the elements may point only into s's own carved memory. It is
// the one way a list that lives as long as its set grows — a succCtx's free
// list of States and its successor lists, a slab CompactPool's free lists,
// the parent log's directory of blocks in internal/core. The outgrown copy
// stays in the set until Release, which costs at most the final size again.
func Grow[T any](s *Slabs, list []T) []T {
	out := CarveSlice[T](s, max(8, 2*cap(list)))[:len(list)]
	copy(out, list)
	return out
}

// CarveTail returns a zeroed T followed directly by n zeroed words — the
// words start unsafe.Sizeof(T) bytes past the T, which must be a multiple of
// 8 — carved from s as one piece under Carve's rule. From a nil set the two
// are one heap object whose type marks T's pointers and none in the words, so
// the collector scans the first and keeps the second alive with it.
func CarveTail[T any](s *Slabs, n int) *T {
	var t T
	size := unsafe.Sizeof(t)
	if size%8 != 0 {
		panic("dbm: CarveTail of a type whose size is not a multiple of 8")
	}
	if s == nil {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "T", Type: reflect.TypeFor[T]()},
			{Name: "W", Type: reflect.ArrayOf(n, reflect.TypeFor[uint64]())},
		})
		return (*T)(reflect.New(typ).UnsafePointer())
	}
	return (*T)(s.zeroed(size + uintptr(n)*8))
}

// zeroed carves size bytes, word-aligned like every piece (no Go type needs
// more), and clears them through their pointer-free view.
func (s *Slabs) zeroed(size uintptr) unsafe.Pointer {
	w := s.bounds(int((size + 7) / 8))
	clear(w)
	return unsafe.Pointer(unsafe.SliceData(w))
}

// Holds reports whether p points into memory the set has carved and not yet
// released: one of its slabs, or a heap piece it keeps. For tests, which
// check Carve's rule with it.
func (s *Slabs) Holds(p unsafe.Pointer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := uintptr(p)
	for _, sl := range s.held {
		if base := uintptr(unsafe.Pointer(sl)); base <= a && a < base+slabBytes {
			return true
		}
	}
	for _, b := range s.big {
		if base := uintptr(unsafe.Pointer(unsafe.SliceData(b))); base <= a && a < base+uintptr(len(b))*8 {
			return true
		}
	}
	return false
}

// Release makes the set's slabs the process-wide cache and frees the slabs
// cached before. The set is empty afterwards and may be used again; releasing
// an empty set leaves the cache as it is. See the type comment for when an
// owner may call it.
func (s *Slabs) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.big, s.hdrs = nil, nil // heap memory: the collector's from here on
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
