//go:build !unix || race

package dbm

// The slab source of builds without mappings: a platform whose syscall
// package has no Mmap, and every race build — the detector tracks Go memory
// only, and carving, release and reuse of exactly this memory is what CI's
// race jobs watch. A slab is a heap object the collector frees once the
// cache has dropped it.

func newSlab() *slab { return new(slab) }

func freeSlab(*slab) {}
