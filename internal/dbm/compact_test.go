package dbm

import (
	"math"
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

// FuzzCompactRoundTrip is the encode/decode identity oracle: any canonical
// zone the exploration could produce — pushed through all three widths via
// value scaling — must decode bit-identically, with the header dimension
// matching the full form.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	// Wide dimension with frees: Infinity sentinels in every row.
	f.Add([]byte{4, 1, 4, 1, 4, 2, 4, 3, 9, 2, 1, 30})
	// Scale selector high: 64-bit escape path.
	f.Add([]byte{250, 2, 0, 1, 2, 9, 2, 1, 30, 0, 3, 1, 5})
	// Mid scale: 32-bit payload.
	f.Add([]byte{129, 3, 0, 2, 1, 10, 5, 1, 2, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		scale := int64(1)
		switch r.next() % 3 {
		case 1:
			scale = 1 << 14
		case 2:
			scale = 1 << 33
		}
		dim := 2 + int(r.next())%5
		z := scaleZone(buildFuzzZone(r, dim), scale)
		c := EncodeCompact(z, nil)
		if c.Dim() != dim {
			t.Fatalf("header dim = %d, want %d", c.Dim(), dim)
		}
		if got := c.Decode(); !got.Eq(z) {
			t.Fatalf("round trip diverges (width %d):\n got %s\nwant %s", c.Width(), got, z)
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
	f.Add([]byte{0})
	// A pair where one strictly includes the other.
	f.Add([]byte{1, 0, 2, 1, 9, 2, 1, 30, 0, 0, 2, 1, 5, 2, 1, 12})
	// Incomparable pair at the 32-bit width.
	f.Add([]byte{130, 2, 5, 2, 1, 3, 0, 3, 1, 5, 12, 40, 7, 0, 8, 1, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		scale := int64(1)
		switch r.next() % 3 {
		case 1:
			scale = 1 << 14
		case 2:
			scale = 1 << 33
		}
		dim := 2 + int(r.next())%5
		z := scaleZone(buildFuzzZone(r, dim), scale)
		o := scaleZone(buildFuzzZone(r, dim), scale)
		c := EncodeCompact(z, nil)
		if got, want := c.ContainsDBM(o), o.SubsetEq(z); got != want {
			t.Fatalf("ContainsDBM = %v, full SubsetEq = %v\n z=%s\n o=%s", got, want, z, o)
		}
		if got, want := c.SubsetEqDBM(o), z.SubsetEq(o); got != want {
			t.Fatalf("SubsetEqDBM = %v, full SubsetEq = %v\n z=%s\n o=%s", got, want, z, o)
		}
	})
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
