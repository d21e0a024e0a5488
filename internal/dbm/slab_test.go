package dbm

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestSlabsCarveDisjoint fills matrices and payloads carved from one set —
// two dimensions, two packing widths, across several slab boundaries — and
// checks that no piece overlaps another: every matrix still holds what was
// written into it and every payload still decodes to its zone.
func TestSlabsCarveDisjoint(t *testing.T) {
	var s Slabs
	defer s.Release()
	pools := []*Pool{s.Pool(22), s.Pool(5)}
	cp := s.CompactPool()
	var ms []*DBM
	var cs []Compact
	var zones []*DBM
	for i := 0; len(s.held) < 4; i++ {
		m := pools[i%2].Get()
		for j := range m.m {
			m.m[j] = Bound(i)
		}
		ms = append(ms, m)
		z := mkZone(t, 3+i%3, 1, int64(2+i%7))
		if i%5 == 0 {
			z = scaleZone(z, 1<<20) // 32-bit payload
		}
		zones = append(zones, z)
		cs = append(cs, EncodeCompact(z, cp))
	}
	for i, m := range ms {
		if len(m.m) != m.dim*m.dim || cap(m.m) != len(m.m) {
			t.Fatalf("matrix %d: len %d cap %d for dim %d", i, len(m.m), cap(m.m), m.dim)
		}
		for _, b := range m.m {
			if b != Bound(i) {
				t.Fatalf("matrix %d overwritten: holds %d", i, b)
			}
		}
	}
	for i, c := range cs {
		if cap(c) != len(c) {
			t.Fatalf("payload %d: cap %d beyond len %d reaches into the next piece", i, cap(c), len(c))
		}
		if !c.Decode().Eq(zones[i]) {
			t.Fatalf("payload %d overwritten", i)
		}
	}
}

// TestSlabsReleasePoisons pins the ownership rule from the test side: with
// poisoning on, what was carved from a set is garbage after Release, while
// standalone pools, heap copies and matrices too big to carve are untouched.
// Reading the garbage is legal only because the released set is still the
// cache: Release frees what was cached before it, never what it was handed,
// so the slab stays mapped until the next Release — and the next owner, here
// the set itself, is handed that very slab.
func TestSlabsReleasePoisons(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	var older Slabs
	older.Pool(6).Get().SetInit()
	older.Release() // cached now, freed by the Release under test
	var s Slabs
	carved := s.Pool(6).Get()
	carved.SetInit()
	packed := EncodeCompact(carved, s.CompactPool())
	kept := carved.Copy()
	alone := NewPool(6).Get()
	alone.SetInit()
	big := s.Pool(70).Get() // 4900 bounds, beyond carveMax
	big.SetInit()

	s.Release()
	if carved.m[0] != poison || carved.m[len(carved.m)-1] != poison {
		t.Error("carved matrix not poisoned by Release")
	}
	if packed[0] == 2 {
		t.Error("carved payload not poisoned by Release")
	}
	for name, z := range map[string]*DBM{"heap copy": kept, "standalone pool matrix": alone, "oversize matrix": big} {
		for _, b := range z.m {
			if b != LEZero {
				t.Fatalf("%s touched by Release", name)
			}
		}
	}
	if len(s.held) != 0 {
		t.Fatalf("set still holds %d slabs after Release", len(s.held))
	}
	if _, _, cached := SlabStats(); cached != slabBytes {
		t.Errorf("cache holds %d bytes after Release, want the released set's %d", cached, slabBytes)
	}
	again := s.Pool(6).Get()
	if &again.m[0] != &carved.m[0] {
		t.Error("the next owner was not handed the slab just released")
	}
	again.SetInit()
	if len(s.held) != 1 || !again.Eq(kept) {
		t.Error("set not usable after Release")
	}
	s.Release()
}

// TestSlabsConcurrentCarving has several owners — each with its own Pool and
// CompactPool, as workers and store shards have — carve from one set at once
// while other sets are released into the shared cache. Run under -race; the
// contents check catches two owners handed the same bytes.
func TestSlabsConcurrentCarving(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	var zones [8]*DBM
	for g := range zones {
		zones[g] = mkZone(t, 3+g, 1, int64(2+g))
	}
	for round := 0; round < 8; round++ {
		var s Slabs
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var other Slabs
				defer other.Release()
				p, cp, op := s.Pool(3+g), s.CompactPool(), other.Pool(4)
				z := zones[g]
				var ms []*DBM
				var cs []Compact
				for i := 0; i < 400; i++ {
					m := p.Get()
					m.CopyFrom(z)
					ms = append(ms, m)
					cs = append(cs, EncodeCompact(z, cp))
					op.Get().SetInit()
				}
				for i := range ms {
					if !ms[i].Eq(z) || !cs[i].ContainsDBM(z) || !cs[i].SubsetEqDBM(z) {
						t.Errorf("owner %d: piece %d overwritten", g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		s.Release()
	}
}

// carved is a pointer-carrying structure of the kind Carve serves: a link, a
// slice header and a count.
type carved struct {
	next *carved
	key  []uint64
	n    int
}

func (c *carved) zero() bool { return c.next == nil && c.key == nil && cap(c.key) == 0 && c.n == 0 }

// TestCarveZeroesRecycledMemory carves pointer-carrying pieces out of a slab
// the previous owner left poisoned, and requires every word zero before the
// caller's first typed store: a write barrier reads the word a pointer store
// overwrites, and it must never find the previous owner's bytes there.
func TestCarveZeroesRecycledMemory(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	var prev Slabs
	prev.bounds(carveMax)
	recycled := prev.held[0]
	prev.Release() // the cache now, so still mapped
	if recycled[0] != poison {
		t.Fatal("setup: the released slab is not poisoned")
	}
	var s Slabs
	defer s.Release()
	one := Carve[carved](&s)
	many := CarveSlice[carved](&s, 100)
	if len(s.held) != 1 || s.held[0] != recycled {
		t.Fatal("setup: the carves did not land in the recycled slab")
	}
	if !one.zero() {
		t.Errorf("Carve handed out %+v, want the zero value", *one)
	}
	for i := range many {
		if !many[i].zero() {
			t.Fatalf("CarveSlice element %d is %+v, want the zero value", i, many[i])
		}
	}
	one.next, one.key = &many[0], CarveSlice[uint64](&s, 3)
	many[0].n = 7
	if one.next.n != 7 || len(one.key) != 3 || cap(many) != 100 {
		t.Error("carved pieces do not read back what was stored in them")
	}
	if h := Carve[carved](nil); !h.zero() || s.Holds(unsafe.Pointer(h)) {
		t.Error("the nil set's Carve is not a zeroed heap object")
	}
}

// TestCarveTail carves a pointer-carrying structure with words after it, from
// a slab set and from the nil set: the words start right after the
// structure, every word of both is zero, and the nil set's piece is one heap
// object that a collection neither frees under its words nor misreads — its
// words hold values no pointer scan may follow.
func TestCarveTail(t *testing.T) {
	var s Slabs
	defer s.Release()
	for _, set := range []*Slabs{&s, nil} {
		head := CarveTail[carved](set, 5)
		words := unsafe.Slice((*uint64)(unsafe.Add(unsafe.Pointer(head), unsafe.Sizeof(carved{}))), 5)
		if !head.zero() || slices.ContainsFunc(words, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("set %v: CarveTail handed out %+v and words %v, want zeros", set != nil, *head, words)
		}
		if got := s.Holds(unsafe.Pointer(&words[4])); got != (set != nil) {
			t.Errorf("set %v: the last word is the set's memory: %v", set != nil, got)
		}
		head.next = &carved{n: 9}
		for i := range words {
			words[i] = 0xDEADBEEF<<3 | uint64(i)
		}
		runtime.GC()
		runtime.GC()
		if head.next.n != 9 || words[4] != 0xDEADBEEF<<3|4 {
			t.Errorf("set %v: the piece changed across collections", set != nil)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CarveTail of a 4-byte type did not panic")
		}
	}()
	CarveTail[[4]byte](&s, 1)
}

// TestSlabsKeepOversizedPieces pins that a set keeps what it had to take from
// the heap — a piece larger than carveMax — until Release, and that Holds
// knows both kinds of memory a set carves and nothing else.
func TestSlabsKeepOversizedPieces(t *testing.T) {
	var s Slabs
	small := CarveSlice[uint64](&s, 8)
	big := CarveSlice[uint64](&s, carveMax+1)
	if len(s.big) != 1 || &s.big[0][0] != (*Bound)(unsafe.Pointer(&big[0])) {
		t.Fatalf("the set keeps %d oversized pieces, want the one carved", len(s.big))
	}
	heapWord := new(uint64)
	for _, c := range []struct {
		what string
		p    unsafe.Pointer
		want bool
	}{
		{"small piece", unsafe.Pointer(&small[7]), true},
		{"oversized piece", unsafe.Pointer(&big[carveMax]), true},
		{"heap word", unsafe.Pointer(heapWord), false},
	} {
		if got := s.Holds(c.p); got != c.want {
			t.Errorf("Holds(%s) = %v, want %v", c.what, got, c.want)
		}
	}
	s.Release()
	if len(s.big) != 0 || s.Holds(unsafe.Pointer(&big[0])) || s.Holds(unsafe.Pointer(&small[0])) {
		t.Error("the set still holds its pieces after Release")
	}
}
