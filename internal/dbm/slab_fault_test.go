//go:build faultinject && unix && !race

package dbm

import (
	"testing"

	"repro/internal/faultinject"
)

// TestSlabMapFailureFallsBackToHeap refuses one mapping: the sweep that
// needed it gets a heap slab, SlabStats shows it in use but not mapped, and
// the slab passes through the cache and out of it like any other — freeSlab
// must not hand heap memory to munmap.
func TestSlabMapFailureFallsBackToHeap(t *testing.T) {
	defer faultinject.Reset()
	takeN(1).Release() // a one-slab cache, taken below, so the next take maps
	var s Slabs
	s.Matrix(6).SetInit()
	mapped0, inUse0, _ := SlabStats()

	faultinject.Set("dbm/mmap", faultinject.Fault{Kind: faultinject.KindError})
	for len(s.held) < 2 {
		s.Matrix(6).SetInit()
	}
	z := s.Matrix(6)
	z.SetInit()
	if mapped, inUse, _ := SlabStats(); mapped != mapped0 || inUse != inUse0+slabBytes {
		t.Fatalf("refused mapping: mapped %d -> %d, in use %d -> %d; want a heap slab in use", mapped0, mapped, inUse0, inUse)
	}
	if !z.Eq(New(6)) {
		t.Fatal("matrix carved from the heap slab does not hold what was written")
	}

	next := takeN(1)
	s.Release()
	next.Release() // frees both slabs of s, the heap one among them
	if mapped, _, cached := SlabStats(); mapped != slabBytes || cached != slabBytes {
		t.Fatalf("after the trim: mapped %d, cached %d; want one mapped slab cached", mapped, cached)
	}
	takeN(3).Release() // mapping works again
	if mapped, _, _ := SlabStats(); mapped != 3*slabBytes {
		t.Fatalf("mapped %d after three more slabs, want %d", mapped, 3*slabBytes)
	}
}
