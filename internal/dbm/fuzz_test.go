package dbm

import (
	"testing"
)

// FuzzIncrementalClose is the differential property harness for the two
// incremental ways of restoring canonical form (see the package comment): a
// byte-driven interpreter builds a random canonical nonempty zone the way
// exploration does (delays, resets, frees, axis and diagonal constraints),
// then each is checked bit-for-bit against a full-Floyd–Warshall reference
// on a copy:
//
//   - ExtraMTouched (CloseRows after loosening) vs the loosening scan + full
//     Close, including the changed flag;
//   - a chain of Constrain calls (single-edge closure after tightening) vs
//     the same bounds written entrywise + full Close, including the
//     emptiness verdict — once with every bound of a second random zone (an
//     intersection), once with a short list of arbitrary constraints (a
//     guard).
//
// The seed corpus under testdata/fuzz pins the known-delicate shapes (bounds
// re-derived through untouched clocks, empty intersections, several guards on
// one clock); `go test` replays it on every run, and CI additionally runs a
// short -fuzz smoke.
func FuzzIncrementalClose(f *testing.F) {
	f.Add([]byte{0})
	// Two equal-clock zones intersected after diverging resets.
	f.Add([]byte{2, 0, 1, 2, 9, 2, 1, 30, 0, 3, 1, 5, 12, 40, 7, 0, 8, 1})
	// Wide dimension, many ops, tiny max constants: dense extrapolation.
	f.Add([]byte{4, 0, 1, 1, 3, 2, 2, 25, 3, 1, 2, 4, 3, 0, 5, 1, 2, 17, 1, 1, 1, 2, 2, 2, 9, 9, 9})
	// Diagonal-heavy zone: drops must be re-derived through untouched clocks.
	f.Add([]byte{3, 0, 2, 1, 10, 5, 1, 2, 2, 5, 2, 3, 8, 3, 200, 15, 15, 60, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		dim := 2 + int(r.next())%5
		z := buildFuzzZone(r, dim)
		if z.IsEmpty() {
			t.Fatal("zone builder must keep the zone nonempty")
		}

		// --- extrapolation: CloseRows (loosening) vs full Close ---
		max := fuzzConsts(r, dim, -2) // negative = never compared
		rows, cols := NewTouched(dim), NewTouched(dim)

		inc := z.Copy()
		ref := z.Copy()
		if inc.ExtraMTouched(max, rows, cols) != extraMFullClose(ref, max) {
			t.Fatalf("ExtraM changed flag diverges on %s", z)
		}
		if !inc.Eq(ref) {
			t.Fatalf("ExtraM diverges:\n got %s\nwant %s\nfrom %s", inc, ref, z)
		}
		assertCanonical(t, "ExtraM", inc)

		// --- Constrain chains (tightening) vs full Close ---
		checkConstrainChain(t, "intersection", z, zoneCons(buildFuzzZone(r, dim)))

		nc := 1 + int(r.next())%4
		cons := make([]con, 0, nc)
		for k := 0; k < nc; k++ {
			i := int(r.next()) % dim
			j := int(r.next()) % dim
			if i == j {
				continue
			}
			v := int64(r.next()%28) - 6
			b := LE(v)
			if r.next()%2 == 0 {
				b = LT(v)
			}
			cons = append(cons, con{i, j, b})
		}
		checkConstrainChain(t, "guard", z, cons)
	})
}

// checkConstrainChain intersects z with the conjunction of cons twice — one
// Constrain per constraint, stopping at the first that empties the zone, and
// entrywise tightening followed by a full Close — and fails unless the two
// agree on emptiness and, when nonempty, on every bound.
func checkConstrainChain(t *testing.T, op string, z *DBM, cons []con) {
	t.Helper()
	seq := z.Copy()
	okSeq := constrainChain(seq, cons)
	ref := z.Copy()
	okRef := tightenFullClose(ref, cons)
	if okSeq != okRef {
		t.Fatalf("%s emptiness diverges: Constrain chain=%v full close=%v (%d constraints on %s)",
			op, okSeq, okRef, len(cons), z)
	}
	if okRef && !seq.Eq(ref) {
		t.Fatalf("%s diverges:\n got %s\nwant %s\nfrom %s", op, seq, ref, z)
	}
}

// FuzzDelayUnder is the differential harness for the invariant kernel: a
// random canonical nonempty zone, a random list of single-clock upper bounds
// (weak and strict, possibly several on one clock, possibly below the zone's
// lower bounds), with and without delay — checkDelayUnder compares the one
// DelayUnder call against every slower spelling of the same zone. The seed
// corpus under testdata/fuzz pins one input per shape: bounds that bite only
// after the delay, two bounds on one clock, a strict bound that empties the
// zone and the weak one at the same constant that does not, a negative bound,
// a bound reaching a clock through a diagonal, the already-satisfied exit,
// and a delay under no bound at all.
func FuzzDelayUnder(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		dim := 2 + int(r.next())%5
		z := buildFuzzZone(r, dim)
		delay := r.next()%2 == 1
		nb := int(r.next()) % 6
		cons := make([]con, 0, nb)
		for k := 0; k < nb; k++ {
			c := 1 + int(r.next())%(dim-1)
			v := int64(r.next()%30) - 3
			b := LE(v)
			if r.next()%2 == 0 {
				b = LT(v)
			}
			cons = append(cons, con{c, 0, b})
		}
		checkDelayUnder(t, z, cons, delay)
	})
}

// checkDelayUnder applies the upper bounds of cons (each xi - x0 ≺ b) to the
// canonical nonempty zone z with one DelayUnder call and fails unless the
// result agrees — on emptiness and, when nonempty, on every bound — with
//
//   - Up (when delaying) followed by one Constrain per bound,
//   - Up followed by entrywise tightening and the full Close, and
//   - the two-application form of the semantics: the Constrain chain before
//     the delay, to decide emptiness, and again after Up.
//
// An empty result must read as empty through IsEmpty, a nonempty one must be
// canonical. It returns the nonempty result, or nil.
func checkDelayUnder(t *testing.T, z *DBM, cons []con, delay bool) *DBM {
	t.Helper()
	ub := NewUpperBounds(z.Dim())
	for _, c := range cons {
		ub.Lower(c.i, c.b)
	}
	got := z.Copy()
	ok := got.DelayUnder(ub, delay)

	seq, full, twice := z.Copy(), z.Copy(), z.Copy()
	okTwice := constrainChain(twice, cons)
	if delay {
		seq.Up()
		full.Up()
		if okTwice {
			twice.Up()
			okTwice = constrainChain(twice, cons)
		}
	}
	okSeq := constrainChain(seq, cons)
	okFull := tightenFullClose(full, cons)
	if ok != okSeq || ok != okFull || ok != okTwice {
		t.Fatalf("emptiness diverges: DelayUnder=%v Constrain chain=%v full close=%v two applications=%v (delay=%v, %v on %s)",
			ok, okSeq, okFull, okTwice, delay, cons, z)
	}
	if !ok {
		if !got.IsEmpty() {
			t.Fatalf("empty result not marked on the diagonal: %s (delay=%v, %v on %s)", got, delay, cons, z)
		}
		return nil
	}
	for name, ref := range map[string]*DBM{"Constrain chain": seq, "full close": full, "two applications": twice} {
		if !got.Eq(ref) {
			t.Fatalf("DelayUnder diverges from %s:\n got %s\nwant %s\nfrom %s (delay=%v, %v)",
				name, got, ref, z, delay, cons)
		}
	}
	assertCanonical(t, "DelayUnder", got)
	return got
}

// FuzzSubsumedBeforeExtrapolate checks the equivalence the passed store of
// internal/core decides by (see ExtraBounds): for a canonical zone y and a
// stored zone r = E(r0), y ⊆ r exactly when E(y) ⊆ r, and E(y) is a fixed
// point of E — under Extra_M, constants ≥ 0. r0 is an independent random
// zone, a loosening of y (so that y ⊆ r, the case a reject on the raw zone
// relies on) or a tightening of it. The seed corpus under testdata/fuzz pins
// both answers, with and without a y that extrapolation changes.
func FuzzSubsumedBeforeExtrapolate(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		dim := 2 + int(r.next())%6
		y := buildFuzzZone(r, dim)
		var r0 *DBM
		switch r.next() % 3 {
		case 0:
			r0 = buildFuzzZone(r, dim)
		case 1:
			r0 = y.Copy()
			for k := int(r.next()) % 3; k >= 0; k-- {
				if r.next()%2 == 0 {
					r0.Up()
				} else {
					r0.Free(1 + int(r.next())%(dim-1))
				}
			}
		case 2:
			r0 = y.Copy()
			if c := 1 + int(r.next())%(dim-1); !r0.Constrain(c, 0, LE(int64(r.next()%25))) {
				r0 = y.Copy()
			}
		}
		max := fuzzConsts(r, dim, 0)
		checkSubsumedBeforeExtrapolate(t, "Extra_M", y, r0, NewExtraM(max))
	})
}

// checkSubsumedBeforeExtrapolate fails unless deciding y ⊆ E(r0) on the raw
// y and on E(y) agree and E(y) is a fixed point. It reports which case the
// input was: y subsumed, y changed by extrapolation.
func checkSubsumedBeforeExtrapolate(t *testing.T, op string, y, r0 *DBM, x ExtraBounds) (subsumed, changed bool) {
	t.Helper()
	if !x.Idempotent() {
		t.Fatalf("%s: bounds of constants >= 0 must be idempotent", op)
	}
	rows, cols := NewTouched(y.Dim()), NewTouched(y.Dim())
	r := r0.Copy()
	r.Extrapolate(&x, rows, cols)
	ey := y.Copy()
	changed = ey.Extrapolate(&x, rows, cols)
	subsumed = y.SubsetEq(r)
	if got := ey.SubsetEq(r); got != subsumed {
		t.Fatalf("%s: y ⊆ r is %v but E(y) ⊆ r is %v\n   y %s\nE(y) %s\n   r %s", op, subsumed, got, y, ey, r)
	}
	// By value: the flag may be up again, for a dropped bound that closure
	// re-derives through other clocks both times.
	again := ey.Copy()
	if again.Extrapolate(&x, rows, cols); !again.Eq(ey) {
		t.Fatalf("%s: E(E(y)) != E(y)\n   E(y) %s\nE(E(y)) %s", op, ey, again)
	}
	return subsumed, changed
}

// constrainChain applies one Constrain per constraint, stopping at the first
// that empties the zone, and reports whether the zone stayed nonempty.
func constrainChain(d *DBM, cons []con) bool {
	for _, c := range cons {
		if !d.Constrain(c.i, c.j, c.b) {
			return false
		}
	}
	return true
}

// byteReader hands out fuzz input bytes, repeating 0 when exhausted.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// buildFuzzZone replays a short op program from the input bytes, mirroring
// how zones arise during exploration (delay, reset, free, constrain). Ops
// that would empty the zone are rolled back so the result is always a
// canonical nonempty zone.
func buildFuzzZone(r *byteReader, dim int) *DBM {
	d := New(dim)
	steps := 3 + int(r.next())%10
	for s := 0; s < steps; s++ {
		switch r.next() % 6 {
		case 0:
			d.Up()
		case 1:
			d.Reset(1+int(r.next())%(dim-1), int64(r.next()%9))
		case 2:
			c := 1 + int(r.next())%(dim-1)
			prev := d.Copy()
			if !d.Constrain(c, 0, LE(int64(r.next()%25))) {
				d = prev
			}
		case 3:
			c := 1 + int(r.next())%(dim-1)
			prev := d.Copy()
			if !d.Constrain(0, c, LE(-int64(r.next()%12))) {
				d = prev
			}
		case 4:
			d.Free(1 + int(r.next())%(dim-1))
		case 5:
			i := int(r.next()) % dim
			j := int(r.next()) % dim
			if i == j {
				continue
			}
			prev := d.Copy()
			if !d.Constrain(i, j, LE(int64(r.next()%20)-4)) {
				d = prev
			}
		}
	}
	return d
}

// fuzzConsts reads one maximal constant per clock, in [shift, shift+24). The
// committed corpora carry two more bytes per clock, which are skipped so that
// every file keeps building the zones its name describes.
func fuzzConsts(r *byteReader, dim int, shift int64) []int64 {
	max := make([]int64, dim)
	for c := 1; c < dim; c++ {
		max[c] = int64(r.next()%24) + shift
		r.next()
		r.next()
	}
	return max
}

// assertCanonical fails unless d is bit-identical to its own full re-closure
// (i.e. already in canonical form).
func assertCanonical(t *testing.T, op string, d *DBM) {
	t.Helper()
	re := d.Copy()
	re.Close()
	if !d.Eq(re) {
		t.Fatalf("%s left a non-canonical DBM:\n got %s\nwant %s", op, d, re)
	}
}
