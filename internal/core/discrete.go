package core

import (
	"math/bits"

	"repro/internal/ta"
)

// discretePacker is the store's encoding of a state's discrete part — one
// location per process, one value per variable — as a fixed number of words,
// the entry's key (see "Keys" in store.go). Each process's location is a
// field of bits.Len(#locations−1) bits; each variable is a field of
// bits.Len64(Max−Min) bits holding value−Min. Fields are laid end to end in
// process order, then variable order, and a field that does not fit in what
// is left of a word continues in the next one, so the key is
// ⌈Σ widths / 64⌉ words (at least one): 3 for the networks of table1 and
// archchain in the benchmark, 1 for those of fischer and variants.
//
// The encoding is injective on every valuation inside the declared ranges,
// and only such valuations reach the store: Finalize refuses a network whose
// initial values or location references are out of range, and engine.fire
// refuses a transition whose updates leave a variable's range
// (ta.Network.CheckVarBounds). It is immutable once built and shared by
// every ctx.
type discretePacker struct {
	locs  []keyField // one per process
	vars  []keyField // one per variable
	words int
}

// keyField is where one component sits in a key.
type keyField struct {
	// min is subtracted before packing and added back after: 0 for a
	// location, the declared Min for a variable. Both directions wrap, so a
	// field spanning the whole int64 range is exact too.
	min  uint64
	mask uint64 // the field's width in low ones; 0 for a 0-bit field
	word int32  // the word the field starts in
	// shift is the field's first bit in word; split is set when the field
	// runs on into word+1, and closes when it ends word, running on or
	// ending exactly at its last bit.
	shift         uint8
	split, closes bool
}

// newDiscretePacker returns the packer of a finalized network.
func newDiscretePacker(net *ta.Network) discretePacker {
	counts := make([]int, len(net.Procs))
	for i := range net.Procs {
		counts[i] = len(net.Procs[i].Locations)
	}
	return packerFor(counts, net.Vars)
}

// packerFor lays out the fields of processes with the given location counts
// and of the given variables.
func packerFor(locCounts []int, vars []ta.VarDecl) discretePacker {
	fields := make([]keyField, len(locCounts)+len(vars))
	p := discretePacker{locs: fields[:len(locCounts):len(locCounts)], vars: fields[len(locCounts):]}
	bit := 0
	place := func(f *keyField, min, span uint64) {
		width := bits.Len64(span)
		f.min = min
		if width == 0 {
			return
		}
		f.mask = ^uint64(0) >> (64 - width)
		f.word, f.shift = int32(bit/64), uint8(bit%64)
		f.split = bit%64+width > 64
		f.closes = bit%64+width >= 64
		bit += width
	}
	for i, n := range locCounts {
		place(&p.locs[i], 0, uint64(max(n, 1)-1))
	}
	for i, v := range vars {
		place(&p.vars[i], uint64(v.Min), uint64(v.Max)-uint64(v.Min))
	}
	p.words = max(1, (bit+63)/64)
	return p
}

// pack writes the key of (locs, vars) into dst, which holds p.words words.
// The fields are laid out in the order they are visited, so each word is
// assembled in acc and stored once, when its last field closes it.
func (p *discretePacker) pack(locs []ta.LocID, vars []int64, dst []uint64) {
	var acc uint64
	w := 0
	fs := p.locs[:len(locs)]
	for i := range fs {
		acc, w = fs[i].put(dst, acc, w, uint64(locs[i]))
	}
	fs = p.vars[:len(vars)]
	for i := range fs {
		acc, w = fs[i].put(dst, acc, w, uint64(vars[i]))
	}
	if w < len(dst) {
		dst[w] = acc
	}
}

// unpack decodes key into locs and vars, which are sized for the network.
func (p *discretePacker) unpack(key []uint64, locs []ta.LocID, vars []int64) {
	fs := p.locs[:len(locs)]
	for i := range fs {
		locs[i] = ta.LocID(fs[i].get(key))
	}
	fs = p.vars[:len(vars)]
	for i := range fs {
		vars[i] = int64(fs[i].get(key))
	}
}

// hash hashes a key p packed, mixing each word into an FNV-1a-style product
// with a splitmix-style finalizer, so that the low bits the store's bucket
// index reads depend on every field. It is the one hash of a discrete state:
// the store keys its buckets by it (storeEntry.hash), and the parent log
// records it for replay to check against.
func (p *discretePacker) hash(key []uint64) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := uint64(14695981039346656037)
	for _, w := range key {
		h = (h ^ w) * prime
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// put adds the field holding x to acc, the bits of word w so far; a field
// that closes w stores it and starts w+1 with the bits that run on.
func (f *keyField) put(dst []uint64, acc uint64, w int, x uint64) (uint64, int) {
	v := x - f.min
	acc |= v << (f.shift & 63) // the mask spares the compiler its >= 64 guard
	if f.closes {
		dst[w] = acc
		acc, w = v>>(64-f.shift), w+1
	}
	return acc, w
}

func (f *keyField) get(src []uint64) uint64 {
	v := src[f.word] >> (f.shift & 63)
	if f.split {
		v |= src[f.word+1] << ((64 - f.shift) & 63)
	}
	return v&f.mask + f.min
}
