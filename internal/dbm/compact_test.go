package dbm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
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
		if len(c) != compactHeader+z.Dim()*z.Dim()*tc.width {
			t.Errorf("%s: len = %d, want %d", tc.name, len(c), compactHeader+z.Dim()*z.Dim()*tc.width)
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

// compactFuzzDims are the dimensions the packing fuzzers draw from. With dim²
// bounds to a payload, the odd ones leave the word-wide kernels a tail after
// their last whole 64-bit word at both narrow widths, the even ones none.
var compactFuzzDims = [...]int{1, 2, 3, 4, 5, 6, 7}

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
// second byte picks the dimension. build draws one zone of that shape.
func compactFuzzShape(r *byteReader) (dim, width int, build func() *DBM) {
	sel := int(r.next()) % (3 + len(compactFuzzEdges))
	dim = compactFuzzDims[int(r.next())%len(compactFuzzDims)]
	if dim == 1 {
		return 1, 2, func() *DBM { return New(1) }
	}
	if sel < 3 {
		scale := [...]int64{1, 1 << 14, 1 << 33}[sel]
		return dim, 0, func() *DBM { return scaleZone(buildFuzzZone(r, dim), scale) }
	}
	edge := compactFuzzEdges[sel-3]
	return dim, edge.width, func() *DBM {
		z := buildFuzzZone(r, dim)
		z.Free(1)
		if edge.b > 0 {
			z.Constrain(1, 0, edge.b)
		} else {
			z.Constrain(0, 1, edge.b)
		}
		return z
	}
}

// addCompactShapeSeeds seeds a packing fuzzer with every (first byte, second
// byte) pair compactFuzzShape tells apart, each followed by one op program
// for two zones: delays, bounds from both sides, a reset, a freed clock (so
// Infinity entries) and a diagonal constraint.
func addCompactShapeSeeds(f *testing.F) {
	program := []byte{
		9, 0, 2, 0, 20, 3, 1, 3, 1, 0, 4, 0, 4, 1, 5, 1, 2, 9, 2, 1, 24, 0, 3, 0, 5,
		7, 0, 2, 1, 12, 0, 3, 0, 2, 4, 0, 5, 2, 1, 6, 2, 0, 18, 0,
	}
	for d := range compactFuzzDims {
		for sel := 0; sel < 3+len(compactFuzzEdges); sel++ {
			f.Add(append([]byte{byte(sel), byte(d)}, program...))
		}
	}
}

// FuzzCompactRoundTrip is the encode/decode identity oracle: any canonical
// zone the exploration could produce — pushed through all three widths by
// scaling its values or planting a bound next to a sentinel — must decode
// bit-identically, with the header dimension matching the full form, at the
// width its extreme bound calls for, and byte for byte what the per-element
// reference packs. The seeds cover every shape compactFuzzShape knows: each
// dimension at each scale and with each edge planted.
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
		assertCanonical(t, "fuzz zone", z)
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

// refEncodeCompact is EncodeCompact written one bound at a time: the packing
// the word-wide kernel must reproduce byte for byte.
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
	c := make(Compact, compactHeader+len(d.m)*width)
	c[0] = byte(width)
	binary.LittleEndian.PutUint16(c[2:4], uint16(d.dim))
	for i, b := range d.m {
		at := c[compactHeader+i*width:]
		switch {
		case width == 8:
			binary.LittleEndian.PutUint64(at, uint64(b))
		case width == 4 && b == Infinity:
			binary.LittleEndian.PutUint32(at, math.MaxInt32)
		case width == 4:
			binary.LittleEndian.PutUint32(at, uint32(int32(b)))
		case b == Infinity:
			binary.LittleEndian.PutUint16(at, math.MaxInt16)
		default:
			binary.LittleEndian.PutUint16(at, uint16(int16(b)))
		}
	}
	return c
}

// refDecodeCompact is DecodeInto written one bound at a time.
func refDecodeCompact(c Compact) []Bound {
	width := int(c[0])
	out := make([]Bound, (len(c)-compactHeader)/width)
	for i := range out {
		at := c[compactHeader+i*width:]
		switch width {
		case 2:
			out[i] = Bound(int16(binary.LittleEndian.Uint16(at)))
			if out[i] == math.MaxInt16 {
				out[i] = Infinity
			}
		case 4:
			out[i] = Bound(int32(binary.LittleEndian.Uint32(at)))
			if out[i] == math.MaxInt32 {
				out[i] = Infinity
			}
		default:
			out[i] = Bound(binary.LittleEndian.Uint64(at))
		}
	}
	return out
}

// TestCompactKernelsMatchPerElementReference pins the word-wide pack and
// unpack kernels against the per-element ones above, on matrices laid out to
// hit what whole words can get wrong: every dimension parity (a tail after
// the last word or none), every width, and — by rotating one palette of
// values through the matrix — every value in every lane, the sentinels'
// neighbours and Infinity included. The kernels do not need a canonical
// zone, so the matrices are raw.
func TestCompactKernelsMatchPerElementReference(t *testing.T) {
	palettes := map[int][]Bound{
		2: {0, 1, -1, math.MaxInt16 - 1, math.MinInt16, Infinity, 7, -300, Infinity},
		4: {0, math.MaxInt16, math.MinInt16 - 1, -1, math.MaxInt32 - 1, math.MinInt32, Infinity, 1 << 20, Infinity},
		8: {0, math.MaxInt32, math.MinInt32 - 1, -1, Infinity - 1, math.MinInt64, Infinity, 1 << 40, Infinity},
	}
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 22} {
		for width, palette := range palettes {
			for rot := range palette {
				d := &DBM{dim: dim, m: make([]Bound, dim*dim)}
				for i := range d.m {
					d.m[i] = palette[(i+rot)%len(palette)]
				}
				c, ref := EncodeCompact(d, nil), refEncodeCompact(d)
				if dim*dim >= len(palette) && c.Width() != width {
					t.Fatalf("dim %d rot %d: width %d, want %d", dim, rot, c.Width(), width)
				}
				if !bytes.Equal(c, ref) {
					t.Fatalf("dim %d width %d rot %d: packed\n got %x\nwant %x", dim, c.Width(), rot, c, ref)
				}
				got := &DBM{dim: dim, m: make([]Bound, dim*dim)}
				c.DecodeInto(got)
				if want := refDecodeCompact(ref); !slices.Equal(got.m, want) || !slices.Equal(got.m, d.m) {
					t.Fatalf("dim %d width %d rot %d: unpacked\n got %v\n ref %v\nfrom %v", dim, c.Width(), rot, got.m, want, d.m)
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
