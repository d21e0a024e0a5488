package dbm

import (
	"sync"
	"testing"
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
