package dbm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// mkZone builds a small canonical zone: x1 ∈ [lo, hi], other clocks free-ish.
func mkZone(t *testing.T, dim int, lo, hi int64) *DBM {
	t.Helper()
	z := New(dim)
	z.Up()
	if !z.Constrain(1, 0, LE(hi)) || !z.Constrain(0, 1, LE(-lo)) {
		t.Fatalf("zone [%d,%d] empty", lo, hi)
	}
	return z
}

// scaleZone multiplies every finite bound value by lambda. For lambda ≥ 1
// this preserves canonical form: bound comparison and path addition both
// commute with scaling the values (the weak bits are untouched), so every
// triangle inequality of the closure survives. The fuzzers use it to push
// small generated zones into the 32- and 64-bit encoding widths.
func scaleZone(d *DBM, lambda int64) *DBM {
	s := d.Copy()
	for i := range s.m {
		if s.m[i] != Infinity {
			s.m[i] = MakeBound(s.m[i].Value()*lambda, s.m[i].Weak())
		}
	}
	return s
}

func TestCompactRoundTripWidths(t *testing.T) {
	base := mkZone(t, 3, 2, 9)
	for _, tc := range []struct {
		name   string
		lambda int64
		width  int
	}{
		{"16bit", 1, 2},
		{"32bit", 1 << 14, 4},
		{"64bit", 1 << 33, 8},
	} {
		z := scaleZone(base, tc.lambda)
		c := EncodeCompact(z, nil)
		if c.Width() != tc.width {
			t.Errorf("%s: width = %d, want %d", tc.name, c.Width(), tc.width)
		}
		if c.Dim() != z.Dim() {
			t.Errorf("%s: dim = %d, want %d", tc.name, c.Dim(), z.Dim())
		}
		if got := c.Decode(); !got.Eq(z) {
			t.Errorf("%s: round trip diverges:\n got %s\nwant %s", tc.name, got, z)
		}
		into := New(z.Dim())
		c.DecodeInto(into)
		if !into.Eq(z) {
			t.Errorf("%s: DecodeInto diverges", tc.name)
		}
		// Header, one mask word, every row: clock 2 left zero with clock 1.
		if want := compactHeader + 8 + z.Dim()*z.Dim()*tc.width; len(c) != want {
			t.Errorf("%s: len = %d, want %d", tc.name, len(c), want)
		}
	}
}

// TestCompactSentinelBoundary pins the width escape at the sentinel edge: an
// encoded bound equal to MaxInt16 (the 16-bit Infinity sentinel) must force
// the 32-bit width, never be stored as a false Infinity.
func TestCompactSentinelBoundary(t *testing.T) {
	z := mkZone(t, 2, 0, (math.MaxInt16-1)/2) // encoded LE bound = MaxInt16
	if b := z.At(1, 0); int64(b) != math.MaxInt16 {
		t.Fatalf("setup: encoded bound = %d, want %d", int64(b), math.MaxInt16)
	}
	c := EncodeCompact(z, nil)
	if c.Width() != 4 {
		t.Errorf("width = %d, want 4 (sentinel collision must escape)", c.Width())
	}
	if !c.Decode().Eq(z) {
		t.Error("sentinel-boundary zone corrupted by round trip")
	}
}

func TestCompactInclusionAgainstFull(t *testing.T) {
	small := mkZone(t, 3, 3, 7)
	big := mkZone(t, 3, 2, 9)
	other := mkZone(t, 3, 8, 20) // overlaps big, neither includes the other
	for _, lambda := range []int64{1, 1 << 14, 1 << 33} {
		s, b, o := scaleZone(small, lambda), scaleZone(big, lambda), scaleZone(other, lambda)
		cb := EncodeCompact(b, nil)
		if !cb.ContainsDBM(s) {
			t.Errorf("λ=%d: ContainsDBM: small ⊆ big must hold", lambda)
		}
		if cb.ContainsDBM(o) {
			t.Errorf("λ=%d: ContainsDBM: other ⊄ big", lambda)
		}
		if cb.SubsetEqDBM(s) {
			t.Errorf("λ=%d: SubsetEqDBM: big ⊄ small", lambda)
		}
		if !cb.SubsetEqDBM(b) {
			t.Errorf("λ=%d: SubsetEqDBM: big ⊆ big must hold", lambda)
		}
		cs := EncodeCompact(s, nil)
		if !cs.SubsetEqDBM(b) {
			t.Errorf("λ=%d: SubsetEqDBM: small ⊆ big must hold", lambda)
		}
		// Signature monotonicity, the admission pre-filter's soundness
		// condition.
		ss, sb := SignatureOf(s), SignatureOf(b)
		if !ss.Leq(&sb) {
			t.Errorf("λ=%d: sig(small)=%v exceeds sig(big)=%v in some lane despite inclusion",
				lambda, ss, sb)
		}
	}
}

// TestCompactInfinityEntries checks both directions across Infinity: a
// packed Infinity admits anything, and a packed Infinity is only included in
// a full-DBM Infinity.
func TestCompactInfinityEntries(t *testing.T) {
	free := New(2)
	free.Up() // x1 unbounded above: entry (1,0) is Infinity
	capped := mkZone(t, 2, 0, 5)
	cf := EncodeCompact(free, nil)
	if cf.Width() != 2 {
		t.Fatalf("width = %d, want 2 (Infinity is the sentinel, not a wide value)", cf.Width())
	}
	if !cf.ContainsDBM(capped) {
		t.Error("capped ⊆ free must hold")
	}
	if cf.SubsetEqDBM(capped) {
		t.Error("free ⊄ capped: packed Infinity must not fit a finite bound")
	}
	if !cf.SubsetEqDBM(free) {
		t.Error("free ⊆ free must hold")
	}
	if EncodeCompact(capped, nil).ContainsDBM(free) {
		t.Error("free ⊄ capped (full Infinity vs packed finite)")
	}
}

// TestCompactOmittedRows pins the row mask at its edges: which rows it leaves
// out, what that does to the length, and that all four kernels read an omitted
// row as the row it stands for.
func TestCompactOmittedRows(t *testing.T) {
	// bounded returns the zone where the listed clocks lie in [0, 10+c] and
	// nothing bounds the others — what Up leaves of a zone whose other clocks
	// were all freed.
	bounded := func(dim int, clocks ...int) *DBM {
		z := Universe(dim)
		for _, c := range clocks {
			if c < dim && !z.Constrain(c, 0, LE(int64(10+c))) {
				t.Fatalf("dim %d: bounding clock %d emptied the zone", dim, c)
			}
		}
		return z
	}
	// check packs z and compares the payload with the layout: exactly the
	// rows of kept stored, the length that follows, a lossless round trip,
	// and both inclusions agreeing with the full form against every other.
	check := func(name string, z *DBM, kept []int, others ...*DBM) Compact {
		t.Helper()
		assertCanonical(t, name, z)
		c := EncodeCompact(z, nil)
		for r := 0; r < z.Dim(); r++ {
			if c.omitted(r) == slices.Contains(kept, r) {
				t.Errorf("%s: row %d omitted = %v, kept rows are %v", name, r, c.omitted(r), kept)
			}
		}
		if want := compactHeader + (z.Dim()+63)/64*8 + len(kept)*z.Dim()*2; len(c) != want {
			t.Errorf("%s: %d bytes, want %d", name, len(c), want)
		}
		if !bytes.Equal(c, refEncodeCompact(z)) {
			t.Errorf("%s: payload differs from the per-element reference", name)
		}
		into := scaleZone(z, 3) // stale contents DecodeInto must overwrite, omitted rows too
		if c.DecodeInto(into); !into.Eq(z) || !c.Decode().Eq(z) {
			t.Errorf("%s: round trip diverges:\n got %s\nwant %s", name, into, z)
		}
		for i, o := range append(others, z) {
			if got, want := c.ContainsDBM(o), o.SubsetEq(z); got != want {
				t.Errorf("%s: ContainsDBM(other %d) = %v, full SubsetEq = %v", name, i, got, want)
			}
			if got, want := c.SubsetEqDBM(o), z.SubsetEq(o); got != want {
				t.Errorf("%s: SubsetEqDBM(other %d) = %v, full SubsetEq = %v", name, i, got, want)
			}
		}
		return c
	}

	// Dimension 1 is row 0 alone, with no bound beside its diagonal.
	if c := check("dim 1", New(1), nil); len(c) != compactHeader+8 {
		t.Errorf("dim 1: %d bytes, want header and mask only", len(c))
	}
	// No clock bounded: every clock's row goes, row 0 (clocks are not
	// negative) stays.
	for _, dim := range []int{2, 5, 22} {
		check("universe", Universe(dim), []int{0}, New(dim), bounded(dim, 1))
	}
	// An omitted row against a matrix with one finite bound in that row, and
	// the same matrix packed: a kept row that is Infinity in all entries but
	// one.
	free, one := Universe(3), Universe(3)
	if !one.Constrain(2, 1, LE(5)) {
		t.Fatal("setup: x2 - x1 <= 5 emptied the universe")
	}
	if one.At(2, 0) != Infinity || one.At(2, 1) != LE(5) || one.At(1, 0) != Infinity || one.At(1, 2) != Infinity {
		t.Fatalf("setup: want row 2 finite at column 1 only and row 1 free, got %s", one)
	}
	if c := check("all free", free, []int{0}, one); c.SubsetEqDBM(one) || !c.ContainsDBM(one) {
		t.Error("an omitted row must contain, and not fit under, a row with one finite bound")
	}
	if c := check("one finite bound", one, []int{0, 2}, free); !c.SubsetEqDBM(free) || c.ContainsDBM(free) {
		t.Error("a row kept for one finite bound must fit under, and not contain, a free row")
	}
	// The ends of the mask's 64-bit words: rows 63 | 64 and 127 | 128, kept
	// and omitted on either side, and the last row of the matrix.
	for _, dim := range []int{64, 65, 130} {
		for _, kept := range [][]int{
			{0, 1, 63, 128},
			{0, 62, 64, 127, 129},
			{0, 63, 64, 127, 128},
			{0, dim - 1},
		} {
			kept = slices.DeleteFunc(slices.Clone(kept), func(r int) bool { return r >= dim })
			z := bounded(dim, kept[1:]...)
			// One more clock bounded at each word's end, and one fewer.
			check("mask word end", z, kept,
				bounded(dim, append([]int{63}, kept[1:]...)...),
				bounded(dim, append([]int{64}, kept[1:]...)...),
				bounded(dim, append([]int{dim - 1}, kept[1:]...)...),
				bounded(dim, kept[2:]...), bounded(dim, kept[1:len(kept)-1]...), Universe(dim))
		}
	}
}

func TestCompactPoolRecycles(t *testing.T) {
	p := NewCompactPool()
	z := mkZone(t, 3, 1, 6)
	c1 := EncodeCompact(z, p)
	p.Put(c1)
	c2 := EncodeCompact(mkZone(t, 3, 2, 8), p)
	if gets, reuses := p.Stats(); gets != 2 || reuses != 1 {
		t.Errorf("pool stats = (%d, %d), want (2, 1)", gets, reuses)
	}
	if &c1[0] != &c2[0] {
		t.Error("same-class encode must reuse the released buffer")
	}
	if !c2.Decode().Eq(mkZone(t, 3, 2, 8)) {
		t.Error("recycled buffer holds wrong contents")
	}
	// A different size class must not collide with the recycled buffer.
	c3 := EncodeCompact(mkZone(t, 7, 1, 6), p)
	if c3.Dim() != 7 || !c3.Decode().Eq(mkZone(t, 7, 1, 6)) {
		t.Error("cross-class encode corrupted")
	}
}

// TestCompactPoolRecyclingCostsNoHeap drives a pool of a slab set through
// 20,000 gets over ten payload lengths, putting all 10,000 it holds back
// twice, and requires the heap to grow by at most a few KiB: a slab pool's
// free lists are carved (Grow), where lists grown by append cost hundreds of
// KB. A list of 1,000 stays below the size a set allocates on the heap
// (carveMax). A standalone pool driven the same way must serve as many gets
// from its free lists. The set measured takes its slabs from the cache a
// warm-up set of the same drive released, so a race build's heap slabs do
// not count.
func TestCompactPoolRecyclingCostsNoHeap(t *testing.T) {
	const n = 10_000
	var zones []*DBM
	for dim := 3; dim < 13; dim++ {
		zones = append(zones, mkZone(t, dim, 1, 6))
	}
	held := make([]Compact, n)
	drive := func(p *CompactPool) {
		for range 2 {
			for i := range held {
				held[i] = EncodeCompact(zones[i%len(zones)], p)
			}
			for i := range held {
				p.Put(held[i])
				held[i] = nil
			}
		}
	}
	var warm Slabs
	drive(warm.CompactPool())
	warm.Release()

	var s Slabs
	defer s.Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := s.CompactPool()
	drive(p)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d heap bytes for %d gets and puts", grew, 2*n)
	if grew > 4<<10 {
		t.Errorf("%d gets and puts on a slab pool allocated %d heap bytes, want at most 4 KiB", 2*n, grew)
	}
	for n, l := range p.free {
		if !s.Holds(unsafe.Pointer(unsafe.SliceData(l))) {
			t.Errorf("the free list of length %d is not the set's carved memory", n)
		}
		for _, c := range l {
			if !s.Holds(unsafe.Pointer(unsafe.SliceData(c))) {
				t.Fatalf("the free list of length %d holds a buffer the set did not carve", n)
			}
		}
	}
	standalone := NewCompactPool()
	drive(standalone)
	gets, reuses := p.Stats()
	wantGets, wantReuses := standalone.Stats()
	if gets != wantGets || reuses != wantReuses {
		t.Errorf("slab pool served %d gets, %d reused; standalone %d, %d", gets, reuses, wantGets, wantReuses)
	}
	if reuses != n {
		t.Errorf("%d of %d gets reused a buffer, want %d", reuses, gets, n)
	}
}

// compactFuzzDims are the dimensions the packing fuzzers draw from. With dim
// bounds to a row, the odd ones leave the word-wide kernels a tail after a
// row's last whole 64-bit word at both narrow widths, 4 none, 2 and 6 at one;
// 64, 65 and 130 end a mask word, start the second and reach into the third.
var compactFuzzDims = [...]int{1, 2, 3, 4, 5, 6, 7, 64, 65, 130}

// compactFuzzEdges are the encoded bounds on either side of what the two
// narrow widths can hold — the sentinels, which must escape to the next
// width, and their neighbours, which must not — with the width a zone whose
// extreme bound is that one packs to.
var compactFuzzEdges = [...]struct {
	b     Bound
	width int
}{
	{math.MaxInt16 - 1, 2}, {math.MaxInt16, 4}, {math.MinInt16, 2}, {math.MinInt16 - 1, 4},
	{math.MaxInt32 - 1, 4}, {math.MaxInt32, 8}, {math.MinInt32, 4}, {math.MinInt32 - 1, 8},
}

// compactFuzzShape reads the two bytes that shape the zones of one packing
// fuzz input. The first picks how the small constants of buildFuzzZone reach
// the wider encodings: 0, 1, 2 scale every value (by 1, 2¹⁴, 2³³); 3 to 10
// plant compactFuzzEdges[k-3] as the bound of clock 1 — from above when it is
// positive, from below when negative — which is then the zone's extreme bound
// and decides the width (reported; 0 when the input does not pin it). The
// second byte picks the dimension. build draws one zone of that shape: an op
// program for buildFuzzZone, then one byte that, when odd, frees a clock —
// programs seldom end on a free, and a packed zone with no omitted row never
// reaches the kernels' other branch (TestCompactFuzzOmitsRows holds the share
// of inputs that do).
func compactFuzzShape(r *byteReader) (dim, width int, build func() *DBM) {
	sel := int(r.next()) % (3 + len(compactFuzzEdges))
	dim = compactFuzzDims[int(r.next())%len(compactFuzzDims)]
	if dim == 1 {
		return 1, 2, func() *DBM { return New(1) }
	}
	zone := func() *DBM {
		z := buildFuzzZone(r, dim)
		if k := int(r.next()); k%2 == 1 {
			z.Free(1 + k/2%(dim-1))
		}
		return z
	}
	if sel < 3 {
		scale := [...]int64{1, 1 << 14, 1 << 33}[sel]
		return dim, 0, func() *DBM { return scaleZone(zone(), scale) }
	}
	edge := compactFuzzEdges[sel-3]
	return dim, edge.width, func() *DBM {
		z := zone()
		z.Free(1)
		if edge.b > 0 {
			z.Constrain(1, 0, edge.b)
		} else {
			z.Constrain(0, 1, edge.b)
		}
		return z
	}
}

// compactShapeSeeds returns every (first byte, second byte) pair
// compactFuzzShape tells apart, each followed by the op programs of two
// zones: delays, bounds from both sides, a reset, a freed clock that a
// diagonal constraint bounds again (so Infinity entries in kept rows), and the
// byte that frees a clock for good — after the first zone's program in every
// other seed, after the second's in the rest, so that the zone packed and the
// zone it is compared with both come with and without omitted rows.
func compactShapeSeeds() (seeds [][]byte) {
	first := []byte{7, 0, 2, 0, 20, 3, 1, 3, 1, 0, 4, 0, 4, 1, 5, 1, 2, 9, 2, 1, 24, 0, 3, 0, 5}
	second := []byte{4, 0, 2, 1, 12, 0, 3, 0, 2, 4, 0, 5, 2, 1, 6, 2, 0, 18}
	for d := range compactFuzzDims {
		for sel := 0; sel < 3+len(compactFuzzEdges); sel++ {
			free := byte((d + sel) % 2 * 3) // 3: odd, and clock 2 where there is one
			seed := append([]byte{byte(sel), byte(d)}, first...)
			seed = append(append(append(seed, free), second...), 3-free)
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

func addCompactShapeSeeds(f *testing.F) {
	for _, seed := range compactShapeSeeds() {
		f.Add(seed)
	}
}

// TestCompactFuzzOmitsRows holds the packing fuzzers to the branches the row
// mask added, so that an edit to their generator cannot quietly stop reaching
// them: of FuzzCompactSubsetEq's inputs — random bytes, and its shape seeds —
// a fixed share must pack to a payload with an omitted row, and among those
// SubsetEqDBM must meet both a matrix whose rows are free wherever the
// payload's are and one with a finite bound in such a row.
func TestCompactFuzzOmitsRows(t *testing.T) {
	count := func(inputs [][]byte) (omitting, fit, exceed int) {
		for _, data := range inputs {
			r := &byteReader{data: data}
			_, _, build := compactFuzzShape(r)
			z, o := build(), build()
			c := EncodeCompact(z, nil)
			if z.Dim() == 1 || omittedRows(c) == 0 {
				continue
			}
			omitting++
			fits := true
			for r := 0; r < z.Dim(); r++ {
				fits = fits && (!c.omitted(r) || refOmitted(o, r))
			}
			if fits {
				fit++
			} else {
				exceed++
			}
		}
		return
	}
	rng := rand.New(rand.NewSource(1))
	random := make([][]byte, 2000)
	for i := range random {
		random[i] = make([]byte, 96)
		rng.Read(random[i])
	}
	for _, tc := range []struct {
		name   string
		inputs [][]byte
	}{{"random", random}, {"seeds", compactShapeSeeds()}} {
		omitting, fit, exceed := count(tc.inputs)
		t.Logf("%s: %d inputs, %d pack with an omitted row; against the second zone %d fit, %d exceed",
			tc.name, len(tc.inputs), omitting, fit, exceed)
		if omitting*3 < len(tc.inputs) {
			t.Errorf("%s: %d of %d inputs pack with an omitted row, want a third", tc.name, omitting, len(tc.inputs))
		}
		if fit*20 < len(tc.inputs) || exceed*20 < len(tc.inputs) {
			t.Errorf("%s: omitted rows meet a free row in %d and a bounded one in %d of %d inputs, want a twentieth each",
				tc.name, fit, exceed, len(tc.inputs))
		}
	}
}

// FuzzCompactRoundTrip is the encode/decode identity oracle: any canonical
// zone the exploration could produce — pushed through all three widths by
// scaling its values or planting a bound next to a sentinel — must decode
// bit-identically, with the header dimension matching the full form, at the
// width its extreme bound calls for, and byte for byte what the per-element
// reference packs. The seeds cover every shape compactFuzzShape knows: each
// dimension at each scale and with each edge planted. The corpus under
// testdata/fuzz adds the row mask's edges by name: dimension 1 (row 0 alone),
// every clock's row omitted, a row kept for one finite bound, and clocks
// freed on both sides of a mask word's end at dimensions 64, 65 and 130.
func FuzzCompactRoundTrip(f *testing.F) {
	addCompactShapeSeeds(f)
	f.Add([]byte{0})
	// Wide dimension with frees: Infinity sentinels in every row.
	f.Add([]byte{0, 4, 1, 4, 1, 4, 2, 4, 3, 9, 2, 1, 30})
	// 64-bit escape path.
	f.Add([]byte{2, 2, 0, 1, 2, 9, 2, 1, 30, 0, 3, 1, 5})
	// 32-bit payload.
	f.Add([]byte{1, 3, 0, 2, 1, 10, 5, 1, 2, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		dim, width, build := compactFuzzShape(r)
		z := build()
		if dim <= 7 { // a check of the generator; its O(dim³) would be the fuzzer's whole budget at 130
			assertCanonical(t, "fuzz zone", z)
		}
		c := EncodeCompact(z, nil)
		if c.Dim() != dim {
			t.Fatalf("header dim = %d, want %d", c.Dim(), dim)
		}
		if width != 0 && c.Width() != width {
			t.Fatalf("width = %d, want %d for %s", c.Width(), width, z)
		}
		if got := c.Decode(); !got.Eq(z) {
			t.Fatalf("round trip diverges (width %d):\n got %s\nwant %s", c.Width(), got, z)
		}
		if ref := refEncodeCompact(z); !bytes.Equal(c, ref) {
			t.Fatalf("packed bytes differ from the per-element reference (width %d):\n got %x\nwant %x", c.Width(), c, ref)
		}
		// Round trip again through a pooled buffer: recycling must not leak
		// stale bytes into a fresh encode.
		p := NewCompactPool()
		p.Put(EncodeCompact(z, p))
		if got := EncodeCompact(z, p).Decode(); !got.Eq(z) {
			t.Fatalf("pooled round trip diverges:\n got %s\nwant %s", got, z)
		}
	})
}

// FuzzCompactSubsetEq is the differential inclusion oracle: both packed
// inclusion directions (ContainsDBM, SubsetEqDBM) must agree with full-DBM
// SubsetEq on arbitrary canonical zone pairs at every width. (The pre-filter
// that runs before them in the store has its own oracle, FuzzSignatureMonotone.)
// The corpus under testdata/fuzz names the pairs an omitted row decides: one
// meeting a row with a single finite bound (in either role), two zones that
// omit the same rows, and pairs that differ in one row next to a mask word's
// end.
func FuzzCompactSubsetEq(f *testing.F) {
	addCompactShapeSeeds(f)
	f.Add([]byte{0})
	// A pair where one strictly includes the other.
	f.Add([]byte{0, 1, 2, 1, 9, 2, 1, 30, 0, 0, 2, 1, 5, 2, 1, 12})
	// Incomparable pair at the 32-bit width.
	f.Add([]byte{1, 2, 5, 2, 1, 3, 0, 3, 1, 5, 12, 40, 7, 0, 8, 1, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		_, _, build := compactFuzzShape(r)
		z, o := build(), build()
		c := EncodeCompact(z, nil)
		if got, want := c.ContainsDBM(o), o.SubsetEq(z); got != want {
			t.Fatalf("ContainsDBM = %v, full SubsetEq = %v\n z=%s\n o=%s", got, want, z, o)
		}
		if got, want := c.SubsetEqDBM(o), z.SubsetEq(o); got != want {
			t.Fatalf("SubsetEqDBM = %v, full SubsetEq = %v\n z=%s\n o=%s", got, want, z, o)
		}
	})
}

// refOmitted is the layout's rule for leaving row r of d out of a payload,
// one entry at a time: Infinity everywhere but a (≤, 0) diagonal.
func refOmitted(d *DBM, r int) bool {
	for j := 0; j < d.dim; j++ {
		if b := d.At(r, j); (j == r && b != LEZero) || (j != r && b != Infinity) {
			return false
		}
	}
	return true
}

// omitted reports whether c's mask leaves row r out.
func (c Compact) omitted(r int) bool { return c[compactHeader+r/8]>>(r%8)&1 != 0 }

// omittedRows counts the rows c leaves out.
func omittedRows(c Compact) (n int) {
	for r := 0; r < c.Dim(); r++ {
		if c.omitted(r) {
			n++
		}
	}
	return n
}

// refEncodeCompact is EncodeCompact written one bound at a time, with the row
// mask as the 64-bit words the layout states: the packing the word-wide
// kernel must reproduce byte for byte.
func refEncodeCompact(d *DBM) Compact {
	width := 2
	for _, b := range d.m {
		switch {
		case b == Infinity:
		case b < math.MinInt32 || b >= math.MaxInt32:
			width = 8
		case (b < math.MinInt16 || b >= math.MaxInt16) && width < 4:
			width = 4
		}
	}
	c := make(Compact, compactHeader+(d.dim+63)/64*8)
	c[0] = byte(width)
	binary.LittleEndian.PutUint16(c[2:4], uint16(d.dim))
	for r := 0; r < d.dim; r++ {
		if refOmitted(d, r) {
			word := c[compactHeader+r/64*8:]
			binary.LittleEndian.PutUint64(word, binary.LittleEndian.Uint64(word)|1<<(r%64))
			continue
		}
		for j := 0; j < d.dim; j++ {
			b := d.At(r, j)
			switch {
			case width == 8:
				c = binary.LittleEndian.AppendUint64(c, uint64(b))
			case width == 4 && b == Infinity:
				c = binary.LittleEndian.AppendUint32(c, math.MaxInt32)
			case width == 4:
				c = binary.LittleEndian.AppendUint32(c, uint32(int32(b)))
			case b == Infinity:
				c = binary.LittleEndian.AppendUint16(c, math.MaxInt16)
			default:
				c = binary.LittleEndian.AppendUint16(c, uint16(int16(b)))
			}
		}
	}
	return c
}

// refDecodeCompact is DecodeInto written one bound at a time.
func refDecodeCompact(c Compact) []Bound {
	width, dim := int(c[0]), int(binary.LittleEndian.Uint16(c[2:4]))
	at := c[compactHeader+(dim+63)/64*8:]
	out := make([]Bound, 0, dim*dim)
	for r := 0; r < dim; r++ {
		if binary.LittleEndian.Uint64(c[compactHeader+r/64*8:])>>(r%64)&1 == 1 {
			for j := 0; j < dim; j++ {
				if j == r {
					out = append(out, LEZero)
				} else {
					out = append(out, Infinity)
				}
			}
			continue
		}
		for j := 0; j < dim; j, at = j+1, at[width:] {
			var b Bound
			switch width {
			case 2:
				if b = Bound(int16(binary.LittleEndian.Uint16(at))); b == math.MaxInt16 {
					b = Infinity
				}
			case 4:
				if b = Bound(int32(binary.LittleEndian.Uint32(at))); b == math.MaxInt32 {
					b = Infinity
				}
			default:
				b = Bound(binary.LittleEndian.Uint64(at))
			}
			out = append(out, b)
		}
	}
	if len(at) != 0 {
		panic("refDecodeCompact: payload longer than its mask says")
	}
	return out
}

// TestCompactKernelsMatchPerElementReference pins the word-wide pack and
// unpack kernels against the per-element ones above, on matrices laid out to
// hit what whole words and the row mask can get wrong: every dimension parity
// (a tail after a row's last word or none) and the dimensions around a mask
// word's end, every width, by rotating one palette of values through the
// matrix every value in every lane, the sentinels' neighbours and Infinity
// included, and rows that bound nothing in every position, next to the two
// kinds of row that almost do. The kernels do not need a canonical zone, so
// the matrices are raw.
func TestCompactKernelsMatchPerElementReference(t *testing.T) {
	palettes := map[int][]Bound{
		2: {0, 1, -1, math.MaxInt16 - 1, math.MinInt16, Infinity, 7, -300, Infinity},
		4: {0, math.MaxInt16, math.MinInt16 - 1, -1, math.MaxInt32 - 1, math.MinInt32, Infinity, 1 << 20, Infinity},
		8: {0, math.MaxInt32, math.MinInt32 - 1, -1, Infinity - 1, math.MinInt64, Infinity, 1 << 40, Infinity},
	}
	// free says which rows of a matrix are overwritten with one that bounds
	// nothing; rot shifts the pattern along with the palette.
	frees := []struct {
		name string
		free func(r, rot, dim int) bool
	}{
		{"none", func(r, rot, dim int) bool { return false }},
		{"every third", func(r, rot, dim int) bool { return (r+rot)%3 == 0 }},
		{"all but row 0", func(r, rot, dim int) bool { return r != 0 }},
		{"all", func(r, rot, dim int) bool { return true }},
		{"last of each mask word", func(r, rot, dim int) bool { return r%64 == 63 || r == dim-1 }},
		{"first of each mask word", func(r, rot, dim int) bool { return r%64 == 0 }},
	}
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 22, 64, 65, 130} {
		for width, palette := range palettes {
			for rot := range palette {
				for _, f := range frees {
					d := &DBM{dim: dim, m: make([]Bound, dim*dim)}
					for i := range d.m {
						d.m[i] = palette[(i+rot)%len(palette)]
					}
					omitted := 0
					for r := 0; r < dim; r++ {
						if !f.free(r, rot, dim) {
							continue
						}
						row := d.m[r*dim : (r+1)*dim]
						for j := range row {
							row[j] = Infinity
						}
						// One row in three that looks free is not: its
						// diagonal is not (≤, 0), or one entry is a bound.
						switch row[r] = LEZero; {
						case dim > 1 && (r+rot)%3 == 1:
							row[r] = palette[0]
						case dim > 1 && (r+rot)%3 == 2:
							row[(r+1)%dim] = palette[1]
						default:
							omitted++
						}
					}
					c, ref := EncodeCompact(d, nil), refEncodeCompact(d)
					if f.name == "none" && dim*dim >= len(palette) && c.Width() != width {
						t.Fatalf("dim %d rot %d: width %d, want %d", dim, rot, c.Width(), width)
					}
					if !bytes.Equal(c, ref) {
						t.Fatalf("dim %d width %d rot %d free %s: packed\n got %x\nwant %x", dim, c.Width(), rot, f.name, c, ref)
					}
					if dim == 1 && d.m[0] == LEZero {
						omitted = 1 // freed or not: the palette has (≤, 0) too
					}
					if got := omittedRows(c); got != omitted {
						t.Fatalf("dim %d width %d rot %d free %s: %d rows omitted, want %d", dim, c.Width(), rot, f.name, got, omitted)
					}
					if want := compactHeader + (dim+63)/64*8 + (dim-omitted)*dim*c.Width(); len(c) != want {
						t.Fatalf("dim %d width %d rot %d free %s: %d bytes, want %d", dim, c.Width(), rot, f.name, len(c), want)
					}
					got := &DBM{dim: dim, m: make([]Bound, dim*dim)}
					c.DecodeInto(got)
					if want := refDecodeCompact(ref); !slices.Equal(got.m, want) || !slices.Equal(got.m, d.m) {
						t.Fatalf("dim %d width %d rot %d free %s: unpacked\n got %v\n ref %v\nfrom %v", dim, c.Width(), rot, f.name, got.m, want, d.m)
					}
				}
			}
		}
	}
}

// TestCompactHolderMark pins header byte [1]: the owner's to set, untouched
// by the kernels, and zero again on a buffer that went through the pool —
// also when Put scribbled over it.
func TestCompactHolderMark(t *testing.T) {
	for _, poisoning := range []bool{false, true} {
		PoisonReleased(poisoning)
		p := NewCompactPool()
		z := mkZone(t, 3, 1, 6)
		c := EncodeCompact(z, p)
		if c.Holder() != 0 {
			t.Fatalf("fresh payload has holder mark %d", c.Holder())
		}
		c.SetHolder(2)
		if !c.Decode().Eq(z) || !c.ContainsDBM(z) || !c.SubsetEqDBM(z) || c.Dim() != 3 || c.Width() != 2 {
			t.Error("a set holder mark changed what the payload reads as")
		}
		p.Put(c)
		if poisoning && c[0] == 2 {
			t.Error("Put did not scribble over the recycled payload")
		}
		c2 := EncodeCompact(mkZone(t, 3, 2, 8), p)
		if &c2[0] != &c[0] {
			t.Fatal("same-size encode did not reuse the buffer")
		}
		if c2.Holder() != 0 {
			t.Errorf("recycled payload came back with holder mark %d", c2.Holder())
		}
		if !c2.Decode().Eq(mkZone(t, 3, 2, 8)) {
			t.Error("recycled payload holds wrong contents")
		}
	}
	PoisonReleased(false)
}

// lane returns lane k of a signature.
func (a *Signature) lane(k int) uint32 { return uint32(a[k/2] >> (32 * (k % 2))) }

// refLanes is the signature written the slow, obvious way: every bound clamped
// and biased on its own, summed into the lane of its column.
func refLanes(d *DBM) (lanes [SigLanes]uint64) {
	c := sigClamp(d.dim)
	for i := 0; i < d.dim; i++ {
		for j := 0; j < d.dim; j++ {
			b := d.At(i, j)
			if b > c {
				b = c
			} else if b < -c {
				b = -c
			}
			lanes[j%SigLanes] += uint64(b + c)
		}
	}
	return lanes
}

func TestSignatureLanes(t *testing.T) {
	for _, dim := range []int{1, 2, 7, 8, 9, 16, 22, 64} {
		z := New(dim)
		z.Up()
		for c := 1; c < dim; c++ {
			if c%3 != 0 {
				z.Constrain(c, 0, LE(int64(50+c)))
			}
			z.Constrain(0, c, LT(int64(-c)))
		}
		for _, lambda := range []int64{1, 1 << 14, 1 << 33, int64(sigClamp(dim)) / 2} {
			s := scaleZone(z, max(lambda, 1))
			sig, want := SignatureOf(s), refLanes(s)
			for k := range want {
				if want[k] >= 1<<31 {
					t.Fatalf("dim %d λ=%d: lane %d = %d overflows 31 bits", dim, lambda, k, want[k])
				}
				if uint64(sig.lane(k)) != want[k] {
					t.Errorf("dim %d λ=%d: lane %d = %d, want %d", dim, lambda, k, sig.lane(k), want[k])
				}
			}
		}
	}
	// Leq is lane-wise: one lane out of order is enough to fail, whichever
	// half of whichever word it sits in.
	var a, b Signature
	for k := 0; k < SigLanes; k++ {
		a[k/2] |= uint64(1000+k) << (32 * (k % 2))
	}
	b = a
	if !a.Leq(&b) {
		t.Error("Leq must hold between equal signatures")
	}
	for k := 0; k < SigLanes; k++ {
		lo := a
		lo[k/2] -= 1 << (32 * (k % 2))
		if !lo.Leq(&a) || a.Leq(&lo) {
			t.Errorf("lane %d: Leq(lo, a) = %v, Leq(a, lo) = %v, want true, false", k, lo.Leq(&a), a.Leq(&lo))
		}
	}
	top := Signature{math.MaxInt32 | math.MaxInt32<<32, 0, 0, 0}
	if top.Leq(&Signature{}) || !(&Signature{}).Leq(&top) {
		t.Error("Leq wrong at the lane maximum")
	}
}

// FuzzSignatureMonotone is the soundness oracle of the store's admission
// pre-filter: for canonical zones, a ⊆ b must imply sig(a) ≤ sig(b) in every
// lane — otherwise the filter would skip an inclusion the exact check would
// have found. The first byte picks the dimension (1, 8, 9 and 64 sit on the
// lane-partition edges), the second the scale of the constants (the three
// packing widths, and values at and beyond the signature's clamp); a is then
// carved out of b by further constraints, so most inputs exercise the
// implication instead of skipping it, and an independent second zone covers
// pairs related by accident. The signature itself is checked against the
// naive lane sums, and Leq against a lane-by-lane comparison.
func FuzzSignatureMonotone(f *testing.F) {
	f.Add([]byte{0})
	// dim 9, 16-bit constants, a free clock: Infinity entries in lanes 0 and 1.
	f.Add([]byte{4, 0, 6, 0, 4, 3, 2, 1, 20, 3, 2, 5, 0, 5, 1, 4, 9, 2, 2, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		dims := [...]int{1, 2, 3, 8, 9, 22, 64}
		dim := dims[int(r.next())%len(dims)]
		scale := int64(1)
		switch r.next() % 5 {
		case 1:
			scale = 1 << 14 // 32-bit packing
		case 2:
			scale = 1 << 33 // 64-bit escape
		case 3:
			scale = max(int64(sigClamp(dim))/16, 1) // constants straddle the clamp
		case 4:
			scale = int64(sigClamp(dim)) // every nonzero constant beyond it
		}
		b := New(1)
		var a, o *DBM
		if dim == 1 {
			a, o = New(1), New(1)
		} else {
			b = buildFuzzZone(r, dim)
			o = scaleZone(buildFuzzZone(r, dim), scale)
			a = b.Copy()
			for n := 1 + int(r.next())%4; n > 0; n-- {
				i, j := int(r.next())%dim, int(r.next())%dim
				if i == j {
					continue
				}
				prev := a.Copy()
				if !a.Constrain(i, j, LE(int64(r.next()%24)-6)) {
					a = prev
				}
			}
			a, b = scaleZone(a, scale), scaleZone(b, scale)
		}
		if !a.SubsetEq(b) {
			t.Fatalf("setup: constraining must shrink the zone\n a=%s\n b=%s", a, b)
		}
		check := func(x, y *DBM) {
			sx, sy := SignatureOf(x), SignatureOf(y)
			lx, ly := refLanes(x), refLanes(y)
			lanewise := true
			for k := range lx {
				if uint64(sx.lane(k)) != lx[k] || uint64(sy.lane(k)) != ly[k] {
					t.Fatalf("lane %d: got %d and %d, naive sums %d and %d\n x=%s\n y=%s",
						k, sx.lane(k), sy.lane(k), lx[k], ly[k], x, y)
				}
				lanewise = lanewise && lx[k] <= ly[k]
			}
			if sx.Leq(&sy) != lanewise {
				t.Fatalf("Leq = %v, lane by lane = %v\n sx=%x\n sy=%x", sx.Leq(&sy), lanewise, sx, sy)
			}
			if x.SubsetEq(y) && !lanewise {
				t.Fatalf("signature not monotone: x ⊆ y but lanes %v exceed %v\n x=%s\n y=%s", lx, ly, x, y)
			}
		}
		check(a, b)
		check(b, a)
		check(a, o)
		check(o, a)
		check(o, b)
		check(b, o)
	})
}
