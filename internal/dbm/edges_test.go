package dbm

import (
	"math"
	"testing"
)

// The tests in this file pin the arithmetic and the packing at the edges of
// their ranges, where no workload goes: the encoded Bound near ±MaxInt64,
// the signature clamp at every dimension class, and the compact widths on
// both sides of each switch and on their Infinity sentinels (the 64-bit
// width has no traffic on any benchmark workload).

// TestBoundEncodingEdges pins the ends of the encoded range: (<, c) <
// (≤, c) < (<, c+1) holds up to the top, where the largest weak value
// encodes as Infinity itself, so the largest finite bound is strict.
func TestBoundEncodingEdges(t *testing.T) {
	const top = 1<<62 - 1 // the largest value that still encodes
	const bottom = -1 << 62
	for _, c := range []int64{bottom, bottom + 1, -1, 0, 1, top - 1} {
		lt, le, next := LT(c), LE(c), LT(c+1)
		if !(lt < le && le < next) {
			t.Errorf("c=%d: want LT(c) < LE(c) < LT(c+1), got %d, %d, %d", c, lt, le, next)
		}
		if lt.Value() != c || le.Value() != c || lt.Weak() || !le.Weak() {
			t.Errorf("c=%d: decoded (%d, %v) and (%d, %v)", c, lt.Value(), lt.Weak(), le.Value(), le.Weak())
		}
	}
	if LE(top) != Infinity {
		t.Errorf("LE(2^62-1) = %d, want the Infinity encoding", LE(top))
	}
	if b := LT(top); b != Infinity-1 || b.Weak() || b.Value() != top {
		t.Errorf("LT(2^62-1) = %d (%v), want Infinity-1, strict, value 2^62-1", b, b)
	}
	if LT(bottom) != math.MinInt64 || LE(bottom) != math.MinInt64+1 {
		t.Errorf("LT/LE(-2^62) = %d/%d, want MinInt64/MinInt64+1", LT(bottom), LE(bottom))
	}
	if Infinity.Weak() {
		t.Error("Infinity reads as a weak bound")
	}
}

// TestBoundAddEdges pins Add and addFin where sums reach the ends of the
// range: the strict bit is the conjunction of the operands' weak bits, the
// value the exact sum, Infinity absorbs everything in Add, and addFin is Add
// on every finite pair.
func TestBoundAddEdges(t *testing.T) {
	const half = 1 << 61
	cases := []struct {
		a, b, want Bound
	}{
		// The top of the finite range, reached from both signs.
		{LT(half), LT(half - 1), Infinity - 1},
		{LE(half), LT(half - 1), Infinity - 1},
		{LT(half), LE(half - 1), Infinity - 1},
		{LT(1<<62 - 1), LE(0), Infinity - 1},
		{LT(1<<62 - 1), LT(-(1<<62 - 1)), LT(0)},
		// Two weak bounds meeting at the top sum to the Infinity encoding.
		{LE(half), LE(half - 1), Infinity},
		// The bottom of the range.
		{LT(-half), LT(-half), math.MinInt64},
		{LE(-half), LE(-half), math.MinInt64 + 1},
		{LE(-half), LT(-half), math.MinInt64},
		{Bound(math.MinInt64 + 1), LE(0), math.MinInt64 + 1},
		{Bound(math.MinInt64 + 1), LT(0), math.MinInt64},
		// The strict bit around zero.
		{LE(-1), LE(1), LEZero},
		{LT(-1), LE(1), LT(0)},
		{LE(0), LE(0), LEZero},
		{LT(0), LT(0), LT(0)},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); got != c.want {
			t.Errorf("Add(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Add(c.b, c.a); got != c.want {
			t.Errorf("Add(%d, %d) = %d, want %d (commuted)", c.b, c.a, got, c.want)
		}
		if got := addFin(c.a, c.b); got != c.want {
			t.Errorf("addFin(%d, %d) = %d, want Add's %d", c.a, c.b, got, c.want)
		}
	}
	for _, b := range []Bound{math.MinInt64, math.MinInt64 + 1, LT(0), LEZero, Infinity - 1, Infinity} {
		if Add(Infinity, b) != Infinity || Add(b, Infinity) != Infinity {
			t.Errorf("Add(Infinity, %d) is not Infinity", b)
		}
	}
}

// TestSigClampEdges pins the signature clamp: its value at the dimension
// classes' edges, and at every dimension up to 300 that a lane of
// all-Infinity or all-minimum bounds stays below its spare bit, so Leq still
// orders the two.
func TestSigClampEdges(t *testing.T) {
	for _, c := range []struct {
		dim  int
		want Bound
	}{
		{1, math.MaxInt32 / 2},
		{8, math.MaxInt32 / 16},
		{9, math.MaxInt32 / 36},
		{64, math.MaxInt32 / 1024},
		{65, math.MaxInt32 / 1170},
	} {
		if got := sigClamp(c.dim); got != c.want {
			t.Errorf("sigClamp(%d) = %d, want %d", c.dim, got, c.want)
		}
	}
	for dim := 1; dim <= 300; dim++ {
		c := sigClamp(dim)
		if c < 1 {
			t.Fatalf("sigClamp(%d) = %d, want at least 1", dim, c)
		}
		terms := int64(dim * ((dim + SigLanes - 1) / SigLanes))
		if 2*int64(c)*terms >= 1<<31 {
			t.Fatalf("dim %d: a lane may reach %d, past 31 bits", dim, 2*int64(c)*terms)
		}
		lo, hi := &DBM{dim: dim, m: make([]Bound, dim*dim)}, &DBM{dim: dim, m: make([]Bound, dim*dim)}
		for i := range lo.m {
			lo.m[i], hi.m[i] = math.MinInt64, Infinity
		}
		sl, sh := SignatureOf(lo), SignatureOf(hi)
		for k := range sh {
			if (sl[k]|sh[k])&sigSpare != 0 {
				t.Fatalf("dim %d: a lane of word %d reaches its spare bit", dim, k)
			}
		}
		if !sl.Leq(&sh) || sh.Leq(&sl) {
			t.Fatalf("dim %d: the all-minimum signature does not sit strictly below the all-Infinity one", dim)
		}
	}
}

// edgeMatrix is a 3-clock matrix whose kept rows carry lo at (0,1), hi at
// (1,0) and the Infinity sentinel at (1,2) and (2,0). The kernels below
// compare entrywise, so it need not be a closed zone.
func edgeMatrix(lo, hi Bound) *DBM {
	return &DBM{dim: 3, m: []Bound{
		LEZero, lo, LEZero,
		hi, LEZero, Infinity,
		Infinity, LEZero, LEZero,
	}}
}

// TestCompactWidthEdges packs matrices on both sides of the 16/32/64-bit
// switches and checks, at each width, the round trip, both inclusion kernels
// one encoded step either side of the edge value (a step is the strict bit),
// and the Infinity sentinels: a packed Infinity admits any bound and is
// included only in Infinity.
func TestCompactWidthEdges(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi Bound
		width  int
	}{
		{"16-bit top", LEZero, math.MaxInt16 - 1, 2},
		{"16-bit bottom", math.MinInt16, LEZero, 2},
		{"16-bit sentinel escapes", LEZero, math.MaxInt16, 4},
		{"below 16-bit", math.MinInt16 - 1, LEZero, 4},
		{"32-bit top", LEZero, math.MaxInt32 - 1, 4},
		{"32-bit bottom", math.MinInt32, LEZero, 4},
		{"32-bit sentinel escapes", LEZero, math.MaxInt32, 8},
		{"below 32-bit", math.MinInt32 - 1, LEZero, 8},
		{"64-bit ends", math.MinInt64 + 1, Infinity - 1, 8},
	}
	for _, tc := range cases {
		z := edgeMatrix(tc.lo, tc.hi)
		c := EncodeCompact(z, nil)
		if c.Width() != tc.width {
			t.Errorf("%s: width %d, want %d", tc.name, c.Width(), tc.width)
			continue
		}
		back := New(3)
		c.DecodeInto(back)
		if !back.Eq(z) {
			t.Errorf("%s: round trip gives %v, want %v", tc.name, back.m, z.m)
		}
		if !c.ContainsDBM(z) || !c.SubsetEqDBM(z) {
			t.Errorf("%s: the packed matrix is not equal to itself", tc.name)
		}
		for _, at := range []int{1, 3} { // (0,1) and (1,0)
			tighter, looser := edgeMatrix(tc.lo, tc.hi), edgeMatrix(tc.lo, tc.hi)
			tighter.m[at]--
			looser.m[at]++
			if !c.ContainsDBM(tighter) || c.SubsetEqDBM(tighter) {
				t.Errorf("%s: entry %d one step tighter: contains %v, subset %v; want true, false",
					tc.name, at, c.ContainsDBM(tighter), c.SubsetEqDBM(tighter))
			}
			if c.ContainsDBM(looser) || !c.SubsetEqDBM(looser) {
				t.Errorf("%s: entry %d one step looser: contains %v, subset %v; want false, true",
					tc.name, at, c.ContainsDBM(looser), c.SubsetEqDBM(looser))
			}
		}
		for _, at := range []int{5, 6} { // (1,2) and (2,0), packed Infinity
			for _, b := range []Bound{tc.lo, tc.hi, Infinity - 1} {
				finite := edgeMatrix(tc.lo, tc.hi)
				finite.m[at] = b
				if !c.ContainsDBM(finite) || c.SubsetEqDBM(finite) {
					t.Errorf("%s: packed Infinity at %d against %d: contains %v, subset %v; want true, false",
						tc.name, at, b, c.ContainsDBM(finite), c.SubsetEqDBM(finite))
				}
			}
		}
	}
}
