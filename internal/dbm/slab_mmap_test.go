//go:build unix && !race

package dbm

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// takeN takes n slabs into a fresh set without touching their pages.
func takeN(n int) *Slabs {
	s := &Slabs{}
	for i := 0; i < n; i++ {
		s.held = append(s.held, takeSlab())
	}
	return s
}

// TestSlabsOffHeap pins what the mapped slab source is for: zone memory is
// outside the collector's heap, and the process keeps no more of it than the
// last released set.
func TestSlabsOffHeap(t *testing.T) {
	const n = 64 << 20 / slabBytes
	var before, after runtime.MemStats
	mapped0, inUse0, _ := SlabStats()
	runtime.ReadMemStats(&before)
	s := takeN(n)
	runtime.ReadMemStats(&after)
	mapped, inUse, _ := SlabStats()
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("taking 64 MiB of slabs moved HeapAlloc by %d bytes", grew)
	}
	// The cache may have supplied some of the slabs: those were mapped
	// already, so what sets hold is the figure that moves by exactly 64 MiB.
	if inUse-inUse0 != 64<<20 || mapped < inUse {
		t.Errorf("64 MiB taken: in use %d -> %d, mapped %d -> %d", inUse0, inUse, mapped0, mapped)
	}
	s.Release()

	// Set lifecycles of mixed sizes, two sets alive at a time as concurrent
	// sweeps have them: whatever the order of releases, nothing accumulates.
	last := 0
	for i := 0; i < 1000; i++ {
		a, b := 1+i*7%23, 1+i*13%17
		x, y := takeN(a), takeN(b)
		x.bounds(carveMax)[0] = LEZero
		y.bounds(carveMax)[0] = LEZero
		if i%2 == 0 {
			x, y, b = y, x, a // b stays the size of y, the set released last
		}
		x.Release()
		y.Release()
		last = b
	}
	mapped, inUse, cached := SlabStats()
	if inUse != inUse0 || mapped != cached || cached != int64(last)*slabBytes {
		t.Errorf("after 1000 lifecycles: mapped %d, in use %d (was %d), cached %d; want mapped == cached == the last set's %d",
			mapped, inUse, inUse0, cached, int64(last)*slabBytes)
	}
}

// TestSlabMappingsMerge checks the kernel-side cost of one mapping per slab:
// the kernel places anonymous mappings next to each other and merges
// neighbours of equal protection, so 4,096 slabs (1 GiB of address space, no
// page touched) are a few regions — far from the per-process limit on their
// number (65,530 by default), which a region per slab would reach at 16 GiB.
func TestSlabMappingsMerge(t *testing.T) {
	regions := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no region list on this platform: %v", err)
		}
		return bytes.Count(maps, []byte{'\n'})
	}
	mapped0, _, _ := SlabStats()
	before := regions()
	s := takeN(4096)
	after := regions()
	mapped, _, _ := SlabStats()
	s.Release()
	takeN(1).Release() // unmaps the 4,096
	if mapped-mapped0 < 4000*slabBytes {
		t.Skipf("the kernel mapped only %d of 4096 slabs", (mapped-mapped0)/slabBytes)
	}
	t.Logf("4096 slabs: %d -> %d regions", before, after)
	if after-before > 64 {
		t.Errorf("4096 slabs added %d regions to /proc/self/maps (%d -> %d)", after-before, before, after)
	}
	if m, _, _ := SlabStats(); m > mapped0+slabBytes {
		t.Errorf("%d bytes still mapped after the slabs were trimmed (%d before)", m, mapped0)
	}
}
