package dbm

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"
)

// Compact is a stored zone in packed form: an 8-byte header, a row mask, and
// the bounds of the rows the mask keeps, at a narrow fixed width. Canonical
// DBMs in extrapolated explorations have all finite bounds clamped to the
// model horizon, so almost every stored zone fits 16-bit (or at worst 32-bit)
// encoded bounds; the full 64-bit form remains as a width escape so the
// encoding is total.
//
// Layout:
//
//	[0]     width code: 2, 4 or 8 (bytes per bound)
//	[1]     holder mark: zero out of EncodeCompact, and then the buffer's
//	        owner's to use (Holder, SetHolder) — no kernel of this package
//	        reads or writes it, so the owner may change it while another
//	        goroutine decodes the payload. internal/core's store keeps there
//	        whether a waiting state still references the buffer.
//	[2:4]   dim, uint16 little-endian
//	[4:8]   reserved (zero)
//	[8:8+M] row mask, ⌈dim/64⌉ 64-bit little-endian words (M bytes; the rows
//	        behind it start 8-byte aligned): bit r%64 of word r/64 — bit r%8
//	        of byte r/8 — is set when row r is omitted, padding bits are zero
//	[8+M:]  the kept rows in row order, dim bounds each, width bytes a bound,
//	        as native words (lanes)
//
// An omitted row is one whose off-diagonal bounds are all Infinity and whose
// diagonal is (≤, 0): a clock with no upper bound against anything, which
// event-model and observer clocks are between their resets. Nothing of it is
// stored but its mask bit, and it decodes to exactly that row, so the packing
// is lossless for every matrix (a row of Infinity around any other diagonal,
// which no canonical zone has, is kept like any row). A payload is therefore
// 8 + M + keptRows·dim·width bytes, and payloads of one exploration differ in
// length. Row 0 of a canonical zone is never omitted beyond dimension 1: its
// bounds say that clocks are not negative.
//
// Narrow widths store the encoded Bound (value<<1|weak) as int16/int32 with
// math.MaxInt16/math.MaxInt32 as the Infinity sentinel; width 8 stores the
// Bound verbatim (Infinity is already math.MaxInt64). The lanes are native
// words in the host's byte order — a payload never leaves the process — so
// every kernel reads and writes a run of rows as a []int16, []int32 or
// []Bound (lanes), and the layout is byte for byte the little-endian one on
// a little-endian host. Inclusion tests run directly on the packed payload —
// admission never decodes a stored zone.
// The packed form carries no inclusion summary of its own: the store keeps
// each zone's Signature beside the reference to its buffer, so a scan that
// rejects on the signature never touches the buffer at all.
type Compact []byte

const compactHeader = 8

// SigLanes is the number of lanes of a Signature.
const SigLanes = 8

// Signature is a fixed-size inclusion summary of a DBM: lane k holds the sum
// of the clamped bounds of every column j with j%SigLanes == k. Each term is
// monotone in its bound, so d ⊆ z (entrywise d ≤ z) implies
// sig(d)[k] ≤ sig(z)[k] for every lane; stores use the contrapositive as a
// pre-filter before the full entrywise inclusion scan. Partitioning by column
// is what gives the filter its power: a difference constraint xi − xj ≤ c
// usually comes with its mirror xj − xi ≤ −c', and the two land in different
// lanes (j and i) instead of cancelling in one sum.
//
// Lanes are 31-bit unsigned sums, two to a word (lane k in the low or high
// half of word k/2); the bit above each lane is kept clear so that Leq can
// compare both lanes of a word with one subtraction. Signatures of zones of
// different dimension are not comparable.
//
// Ablation (PR 28, 2-core host): with the pre-filter removed and every exact
// check kept, verdict_ms_p50 read fischer 178 → 528 ms (5 of 5 pairs),
// archchain 748 → 1,430 ms (3 of 3) and table1 1,166 → 1,164 ms
// (unresolved). It pays on the two workloads whose stores are scanned; keep it.
type Signature [SigLanes / 2]uint64

// sigSpare has the spare bit above each of a word's two lanes set.
const sigSpare = 1<<63 | 1<<31

// Leq reports whether a ≤ b in every lane — the necessary condition for the
// zone summarized by a to be included in the zone summarized by b.
func (a *Signature) Leq(b *Signature) bool {
	// With its spare bit set a lane of b exceeds any lane of a, so the
	// subtraction never borrows from the lane above, and the spare bit
	// survives it exactly when b's lane is at least a's.
	return ((b[0]|sigSpare)-a[0])&((b[1]|sigSpare)-a[1])&
		((b[2]|sigSpare)-a[2])&((b[3]|sigSpare)-a[3])&sigSpare == sigSpare
}

// sigClamp returns the magnitude c every bound is clamped to before it enters
// a lane as min(max(b, −c), c) + c — monotone in b, which is all the
// pre-filter needs, and never negative. A lane collects at most
// dim·⌈dim/SigLanes⌉ such terms of at most 2c each, so this c keeps every
// lane below 2³¹ whatever the bounds are (Infinity and the 64-bit escape
// included).
func sigClamp(dim int) Bound {
	return Bound(math.MaxInt32 / (2 * dim * ((dim + SigLanes - 1) / SigLanes)))
}

// SignatureOf returns the inclusion signature of d.
func SignatureOf(d *DBM) (sig Signature) {
	dim := d.dim
	c := sigClamp(dim)
	// Rows are walked SigLanes columns at a time so that each lane keeps one
	// accumulator; the +c of every term is added once at the end.
	var l [SigLanes]int64
	for r := 0; r < dim; r++ {
		row := d.m[r*dim : (r+1)*dim]
		for len(row) >= SigLanes {
			l[0] += int64(min(max(row[0], -c), c))
			l[1] += int64(min(max(row[1], -c), c))
			l[2] += int64(min(max(row[2], -c), c))
			l[3] += int64(min(max(row[3], -c), c))
			l[4] += int64(min(max(row[4], -c), c))
			l[5] += int64(min(max(row[5], -c), c))
			l[6] += int64(min(max(row[6], -c), c))
			l[7] += int64(min(max(row[7], -c), c))
			row = row[SigLanes:]
		}
		for j, b := range row {
			l[j] += int64(min(max(b, -c), c))
		}
	}
	for k, v := range l {
		cols := (dim - k + SigLanes - 1) / SigLanes // columns j < dim with j%SigLanes == k
		sig[k/2] |= uint64(v+int64(c)*int64(dim*cols)) << (32 * (k % 2))
	}
	return sig
}

// Dim returns the clock count of the packed zone.
func (c Compact) Dim() int { return int(binary.LittleEndian.Uint16(c[2:4])) }

// Width returns the payload width in bytes per bound (2, 4 or 8).
func (c Compact) Width() int { return int(c[0]) }

// Holder returns the holder mark, header byte [1] (see the layout above).
func (c Compact) Holder() byte { return c[1] }

// SetHolder sets the holder mark.
func (c Compact) SetHolder(h byte) { c[1] = h }

// rows returns what follows the header and the row mask of a dim-clock
// payload: the bounds of its kept rows.
func (c Compact) rows(dim int) []byte { return c[compactHeader+(dim+63)/64*8:] }

// keptRun returns the end of the run of kept rows that starts at row r — r
// itself when that row is omitted. A run ends with its mask word, so a longer
// stretch of kept rows comes as several runs. The kernels below walk a payload
// run by run: the rows of a run are contiguous in the matrix and in the
// payload, which is where the flat loops of a layout without a mask apply.
func (c Compact) keptRun(r, dim int) int {
	word := binary.LittleEndian.Uint64(c[compactHeader+r>>6<<3:])
	return min(r+bits.TrailingZeros64(word>>(r&63)), (r|63)+1, dim)
}

// EncodeCompact packs a canonical DBM into the narrowest width that holds all
// its finite bounds, leaving out the rows that bound nothing (see Compact),
// and draws the buffer from p (which may be nil for a plain allocation). The
// bounds themselves are stored encoded, so the pack is a single scan plus a
// single copy — no per-entry decode.
func EncodeCompact(d *DBM, p *CompactPool) Compact {
	dim := d.dim
	// The length of the buffer depends on what the scan finds, so the mask is
	// collected on the stack first (heap beyond 256 clocks).
	var stack [4]uint64
	mask := stack[:]
	if n := (dim + 63) / 64; n <= len(stack) {
		mask = mask[:n]
	} else {
		mask = make([]uint64, n)
	}
	lo, hi := Bound(math.MaxInt64), Bound(math.MinInt64)
	kept := dim
	for r := 0; r < dim; r++ {
		row := d.m[r*dim : (r+1)*dim]
		finite := 0
		for _, b := range row {
			if b != Infinity {
				finite++
				if b < lo {
					lo = b
				}
				if b > hi {
					hi = b
				}
			}
		}
		// One finite bound, and it is the diagonal's (≤, 0).
		if finite == 1 && row[r] == LEZero {
			mask[r>>6] |= 1 << (r & 63)
			kept--
		}
	}
	width := 8
	switch {
	// The sentinel value itself must stay unrepresentable as a finite bound.
	case lo >= math.MinInt16 && hi < math.MaxInt16:
		width = 2
	case lo >= math.MinInt32 && hi < math.MaxInt32:
		width = 4
	}
	c := p.get(compactHeader + 8*len(mask) + kept*dim*width)
	c[0] = byte(width)
	c[1] = 0
	binary.LittleEndian.PutUint16(c[2:4], uint16(dim))
	binary.LittleEndian.PutUint32(c[4:8], 0)
	pay := c[compactHeader:]
	for _, word := range mask {
		binary.LittleEndian.PutUint64(pay, word)
		pay = pay[8:]
	}
	switch width {
	case 2:
		storeRows[int16](c, d)
	case 4:
		storeRows[int32](c, d)
	default:
		storeRows[Bound](c, d)
	}
	return c
}

// ContainsDBM reports whether d ⊆ c, i.e. every bound of d is at most the
// corresponding packed bound. Both zones must be canonical and of equal
// dimension. The packed payload is compared in place — no decode, no
// allocation — and an omitted row is skipped: anything fits under no
// constraint.
func (c Compact) ContainsDBM(d *DBM) bool {
	switch c[0] {
	case 2:
		return containsRows[int16](c, d)
	case 4:
		return containsRows[int32](c, d)
	}
	return containsRows[Bound](c, d)
}

// SubsetEqDBM reports whether c ⊆ d, i.e. every packed bound is at most the
// corresponding bound of d. Both zones must be canonical and of equal
// dimension. Like ContainsDBM this runs on the packed payload directly; an
// omitted row fits only a row of d that bounds nothing either.
func (c Compact) SubsetEqDBM(d *DBM) bool {
	switch c[0] {
	case 2:
		return withinRows[int16](c, d)
	case 4:
		return withinRows[int32](c, d)
	}
	return withinRows[Bound](c, d)
}

// DecodeInto unpacks the zone into d, which must have the same dimension: an
// omitted row as Infinity around its (≤, 0) diagonal, a kept one from its
// bounds.
func (c Compact) DecodeInto(d *DBM) {
	if d.dim != c.Dim() {
		panic("dbm: dimension mismatch in DecodeInto")
	}
	switch c[0] {
	case 2:
		widenRows[int16](c, d)
	case 4:
		widenRows[int32](c, d)
	default:
		widenRows[Bound](c, d)
	}
}

// lane is a packed bound as a payload of one width holds it: the encoded
// Bound (value<<1|weak) as an int16 or an int32, or the Bound itself. The
// largest value of each is its Infinity sentinel — for Bound, Infinity.
type lane interface{ int16 | int32 | Bound }

// top returns the Infinity sentinel of T.
func top[T lane]() T { return T(Infinity >> (64 - 8*unsafe.Sizeof(T(0)))) }

// widen returns the Bound a lane holds, given T's sentinel t: t is Infinity
// (a conditional move, not a branch).
func widen[T lane](v, t T) Bound {
	b := Bound(v)
	if v == t {
		b = Infinity
	}
	return b
}

// lanes views the kept rows of c, a dim-clock payload, as native words: as
// many whole lanes as its length holds, not its capacity. Rows start 8-byte
// aligned, so the view is aligned; each kernel slices a run of rows off it
// with the ordinary bounds check, so a payload shorter than its mask says
// panics instead of being read past its end.
func lanes[T lane](c Compact, dim int) []T {
	pay := c.rows(dim)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(pay))), len(pay)/int(unsafe.Sizeof(T(0))))
}

// The four kernels below are each the one loop of its operation at every
// width, and each walks the payload run by run (keptRun): a kept run is the
// next len(m) lanes of the payload, laid over the same rows m of the matrix.

// storeRows writes the rows of d that c's mask keeps into c's rows. The width
// was chosen so that every finite bound lies strictly below T's sentinel,
// hence min(b, sentinel) is the lane of both the finite bounds and Infinity,
// without a branch. Four lanes a step through array pointers, so the step
// has no bounds checks and no spills: one lane a step, the 16-bit store of a
// 22-clock zone took ~310 ns against ~290 (2-core Xeon host).
func storeRows[T lane](c Compact, d *DBM) {
	dim, t, pay := d.dim, Bound(top[T]()), lanes[T](c, d.dim)
	for r := 0; r < dim; {
		end := c.keptRun(r, dim)
		if end == r {
			r++
			continue
		}
		m := d.m[r*dim : end*dim]
		r = end
		out := pay[:len(m)]
		pay = pay[len(m):]
		for len(m) >= 4 {
			b, l := (*[4]Bound)(m), (*[4]T)(out)
			l[0], l[1], l[2], l[3] = T(min(b[0], t)), T(min(b[1], t)), T(min(b[2], t)), T(min(b[3], t))
			m, out = m[4:], out[4:]
		}
		for i, b := range m {
			out[i] = T(min(b, t))
		}
	}
}

// containsRows is ContainsDBM at one width.
func containsRows[T lane](c Compact, d *DBM) bool {
	dim, t, pay := d.dim, top[T](), lanes[T](c, d.dim)
	for r := 0; r < dim; {
		end := c.keptRun(r, dim)
		if end == r {
			r++
			continue
		}
		m := d.m[r*dim : end*dim]
		r = end
		in := pay[:len(m)]
		for i, b := range m {
			// A packed Infinity holds anything.
			if v := in[i]; v != t && b > Bound(v) {
				return false
			}
		}
		pay = pay[len(m):]
	}
	return true
}

// withinRows is SubsetEqDBM at one width.
func withinRows[T lane](c Compact, d *DBM) bool {
	dim, t, pay := d.dim, top[T](), lanes[T](c, d.dim)
	for r := 0; r < dim; {
		end := c.keptRun(r, dim)
		if end == r {
			for i, b := range d.m[r*dim : (r+1)*dim] {
				if b != Infinity && i != r {
					return false // packed Infinity exceeds any finite bound
				}
			}
			r++
			continue
		}
		m := d.m[r*dim : end*dim]
		r = end
		in := pay[:len(m)]
		for i, b := range m {
			if widen(in[i], t) > b {
				return false
			}
		}
		pay = pay[len(m):]
	}
	return true
}

// widenRows is DecodeInto at one width: each lane back to its Bound.
func widenRows[T lane](c Compact, d *DBM) {
	dim, t, pay := d.dim, top[T](), lanes[T](c, d.dim)
	for r := 0; r < dim; {
		end := c.keptRun(r, dim)
		if end == r {
			m := d.m[r*dim : (r+1)*dim]
			for i := range m {
				m[i] = Infinity
			}
			m[r] = LEZero
			r++
			continue
		}
		m := d.m[r*dim : end*dim]
		r = end
		in := pay[:len(m)]
		for i := range m {
			m[i] = widen(in[i], t)
		}
		pay = pay[len(m):]
	}
}

// Decode unpacks the zone into a fresh DBM.
func (c Compact) Decode() *DBM {
	d := &DBM{dim: c.Dim(), m: heap.bounds(c.Dim() * c.Dim())}
	c.DecodeInto(d)
	return d
}

// CompactPool recycles Compact buffers by exact byte length, the packed
// counterpart of Pool for stored zones: pruned (subsumed) store entries are
// Put back and the next admission of a same-sized zone reuses the buffer.
// Every zone of one exploration has the same dimension, but a payload's
// length also depends on its width and on how many of its rows are omitted,
// so a store sees up to dim+1 lengths per width. Measured on the benchmark's
// archchain workload (22 clocks, one width): a sweep packs 11 distinct
// lengths, 544 to 984 bytes, and all of its 6,836 pruned buffers are handed
// out again before it ends. Exact lengths (not power-of-two or per-row
// classes) therefore lose no reuse there, and rounding would only give back
// part of what omitting rows saves.
//
// Recycling pays in resident memory and costs no heap. With the free lists
// and the store's holder mark removed — a pruned payload is dropped, and the
// release of its waiting node does nothing — 5 alternating pairs of the
// benchmark (10 s runs, 2-core host) read peak_rss_mb 64.6 against 61.1 MB
// on archchain and 22.1 against 20.8 on table1, higher in 5 of 5 pairs each.
// The lists were then a map of heap slices grown by append, and that growth
// was all the heap recycling cost: alloc_mb_per_verdict 0.184 against 0.145
// MB on archchain. A pool of a slab set now carves its lists from the set,
// doubling a full one with Grow: over alternating pairs against the heap
// lists, alloc_mb_per_verdict read 0.1431 against 0.1840 on archchain (10 of
// 10 lower) and 0.771 against 0.810 on table1 (8 of 8), peak_rss_mb no
// higher, and verdict_ms_p50 moved by less than its run-to-run spread
// (TestCompactPoolRecyclingCostsNoHeap, and TestSweepHeapBytesFlatInPrunes in
// internal/core).
//
// Carving the lists keeps the slab rule (slab.go): a carved list may point
// only into its own set, and a pool of a set takes back only what its own
// get handed out — pieces of the set's slabs, or pieces above carveMax that
// the set keeps until Release (Slabs.big). A list that doubles past 1,024
// buffers of one length outgrows carveMax and is such a kept piece itself. A
// standalone pool grows its lists on the heap, like its buffers. The map
// from length to list stays a heap object: it holds one slice header per
// length a sweep packs, a dozen or so.
//
// A pool is NOT safe for concurrent use — the passed store owns one, and only
// the admitting loop touches it. Buffers the free lists cannot
// supply are carved out of the pool's slab set (slab.go), under the ownership
// rule stated there.
type CompactPool struct {
	slabs *Slabs            // nil: standalone, every buffer is its own heap allocation
	free  map[int][]Compact // keyed by exact buffer capacity; lists grown by Grow
	// kept holds every buffer a standalone pool has allocated, for as long
	// as the pool lives, as a slab set keeps what is carved from it: a
	// buffer may be referenced only from carved memory the collector does
	// not scan (a sweep's frontier, when a standalone store stands in for the
	// sweep's own).
	kept   []Compact
	gets   int
	reuses int
}

// NewCompactPool returns an empty standalone pool whose buffers are allocated
// from the heap.
func NewCompactPool() *CompactPool { return heap.CompactPool() }

// CompactPool returns an empty pool whose buffers are carved from s.
func (s *Slabs) CompactPool() *CompactPool {
	return &CompactPool{slabs: s, free: make(map[int][]Compact)}
}

// get returns a buffer of length n, reusing a free buffer of exactly that
// capacity when available. A nil pool falls back to plain allocation so
// EncodeCompact works standalone.
func (p *CompactPool) get(n int) Compact {
	if p == nil {
		return heap.compact(n)
	}
	p.gets++
	if l := p.free[n]; len(l) > 0 {
		c := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[n] = l[:len(l)-1]
		p.reuses++
		return c[:n]
	}
	c := p.slabs.compact(n)
	if p.slabs == nil {
		p.kept = append(p.kept, c)
	}
	return c
}

// Put returns a buffer to the pool for reuse. The caller must not retain the
// buffer afterwards: the next get of that size overwrites it, and under
// PoisonReleased Put itself does, at once. A pool of a slab set takes back
// only buffers its own get handed out, since it keeps them in carved lists.
func (p *CompactPool) Put(c Compact) {
	if p == nil || cap(c) == 0 {
		return
	}
	c = c[:cap(c)]
	if poisonReleased.Load() {
		for i := range c {
			c[i] = poisonByte
		}
	}
	l := p.free[len(c)]
	if len(l) == cap(l) {
		l = Grow(p.slabs, l)
	}
	p.free[len(c)] = append(l, c)
}

// Stats reports the number of get calls and how many were served by reuse.
func (p *CompactPool) Stats() (gets, reuses int) { return p.gets, p.reuses }
