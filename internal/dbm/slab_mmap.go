//go:build unix && !race

package dbm

import (
	"syscall"
	"unsafe"

	"repro/internal/faultinject"
)

// The slab source of unix builds: one anonymous private mapping per slab.
// The collector does not know the memory — it is not scanned (slabs hold no
// pointers, there is nothing to find) and, what matters, not counted towards
// the heap goal: under GOGC=100 every live heap byte allows a byte of garbage
// before the next cycle, so a sweep's zones held as heap objects cost their
// size twice in resident memory. Mapped, they cost it once. Adjacent
// mappings of equal protection merge in the kernel, so a sweep's slabs are a
// handful of regions, not one each (TestSlabMappingsMerge).

// newSlab maps a slab. When the kernel refuses (address space or mapping
// count exhausted, a memory cgroup's limit) the slab comes from the heap like
// every piece of the nil set: the sweep goes on, SlabStats shows the bytes
// as in use but not mapped, and the collector decides what happens next.
func newSlab() *slab {
	if !faultinject.Enabled || faultinject.Fire("dbm/mmap") == nil {
		b, err := syscall.Mmap(-1, 0, slabBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			slabMapped.Add(slabBytes)
			return (*slab)(unsafe.Pointer(unsafe.SliceData(b)))
		}
	}
	return (*slab)(heap.bounds(slabWords))
}

// freeSlab unmaps a slab newSlab mapped. syscall.Munmap looks the address up
// among the mappings syscall.Mmap made before it calls the kernel, and
// answers EINVAL for anything else, so a slab that came from the heap is
// left to the collector by the same call.
func freeSlab(sl *slab) {
	if syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(sl)), slabBytes)) == nil {
		slabMapped.Add(-slabBytes)
	}
}
