package dbm

// ExtraMTouched applies the classical maximal-constant extrapolation (Extra_M
// from Behrmann et al., "Lower and Upper Bounds in Zone Based Abstractions of
// Timed Automata") and restores canonical form, with caller-provided scratch.
//
// max[c] is the largest constant clock c is ever compared against in guards,
// invariants, or properties; a negative value means the clock is never
// compared and all its bounds may be abstracted away. max[0] is ignored and
// treated as 0.
//
// Soundness: two zones that agree after Extra_M are bisimilar with respect to
// all constraints bounded by max, so reachability of any location/guard in
// the model is preserved. Upper bounds of clocks beyond their max constant
// become Infinity; callers computing sup values (e.g. WCRT) must therefore
// set the measured clock's max constant at least as large as any bound they
// want to observe exactly.
//
// The returned flag reports whether any bound was abstracted.
// Re-canonicalization runs only in that case; the common steady-state case —
// a zone already inside the extrapolation box — is a read-only scan. Callers
// can use the flag to skip downstream work that only matters when the zone
// actually coarsened. It calls Extrapolate with the bounds of max built on
// the spot; the exploration hot path builds them once (NewExtraM) and calls
// Extrapolate itself.
func (d *DBM) ExtraMTouched(max []int64, rows, cols *Touched) bool {
	var buf [2 * stackClocks]Bound
	x := makeExtraBounds(buf[:0], max[:d.dim])
	return d.Extrapolate(&x, rows, cols)
}

// ExtraBounds is what an extrapolation compares the entries of a zone
// against, per clock and in encoded form, so that the dim² loop of
// Extrapolate indexes two vectors instead of rebuilding two bounds per entry.
// Immutable once built, and safe to share between goroutines.
//
// When every lo[j] ≤ hi[i] (Idempotent; constants ≥ 0 guarantee it) a zone r
// that came out of Extrapolate is a fixed point of it, r = E(r): each entry of
// E(z) lies between z's and what the per-entry map made of z's, and a relaxed
// entry lo[j] is not beyond hi[i], so mapping E(z) again gives a matrix
// between E(z) and the first mapped one — and closing either gives E(z), by
// value (the changed flag may still be up). With E monotone (the per-entry
// map is non-decreasing and closure preserves the entrywise order) and only
// ever loosening, that gives, for any canonical y, E(y) ⊆ r ⟺ y ⊆ r — which
// is why the passed store of internal/core decides subsumption on the raw
// zone and extrapolates only what it admits (FuzzSubsumedBeforeExtrapolate).
// A negative constant breaks the fixed point
// (TestNegativeConstantNotIdempotent); ExtraMTouched keeps accepting one, for
// direct callers that apply it once.
type ExtraBounds struct {
	// hi[i] is (≤ M(xi)): an upper bound on xi, relative to any clock, beyond
	// it is dropped. The reference clock has Infinity here — row 0 holds no
	// upper bounds.
	hi []Bound
	// lo[j] is (< −M(xj)): a lower bound on xj below it is relaxed to it. The
	// reference clock's constant is 0.
	lo []Bound
}

// stackClocks is the dimension up to which the []int64 entry points build
// their ExtraBounds in a stack buffer; larger zones allocate one.
const stackClocks = 64

// NewExtraM returns the bounds of Extra_M for the given maximal constants
// (see ExtraMTouched; max[0] is ignored).
func NewExtraM(max []int64) ExtraBounds {
	return makeExtraBounds(heap.bounds(2 * len(max))[:0], max)
}

// makeExtraBounds appends the two vectors to buf, which it may outgrow.
func makeExtraBounds(buf []Bound, max []int64) ExtraBounds {
	dim := len(max)
	buf = append(buf, Infinity)
	for _, m := range max[1:] {
		buf = append(buf, LE(m))
	}
	buf = append(buf, LT(0))
	for _, m := range max[1:] {
		buf = append(buf, LT(-m))
	}
	return ExtraBounds{hi: buf[:dim:dim], lo: buf[dim:]}
}

// Idempotent reports whether every lower bound of x is at most every upper
// bound of it, as when all constants are ≥ 0: the condition under which
// extrapolated zones are fixed points of Extrapolate; see the type comment.
func (x *ExtraBounds) Idempotent() bool {
	loMax := x.lo[0]
	for _, l := range x.lo {
		loMax = max(loMax, l)
	}
	for _, h := range x.hi {
		if h < loMax {
			return false
		}
	}
	return true
}

// Extrapolate abstracts every bound beyond x and restores canonical form. The
// rows of dropped upper bounds and the columns of relaxed lower bounds are
// collected into rows and cols (previous contents discarded), and canonical
// form is restored with CloseRows over just those — O((|rows|+|cols|)·n²)
// instead of the full O(n³) Floyd–Warshall, bit-identical to it by CloseRows'
// loosening argument. The zone must be canonical and nonempty on entry, as
// everywhere in the exploration loop. It reports whether any bound changed.
func (d *DBM) Extrapolate(x *ExtraBounds, rows, cols *Touched) bool {
	n := d.dim
	rows.Reset()
	cols.Reset()
	lo := x.lo[:n]
	for i, hi := range x.hi[:n] {
		ri := d.m[i*n : i*n+n]
		for j, b := range ri {
			if i == j || b == Infinity {
				continue
			}
			if b > hi {
				// Upper bound on xi (relative to xj) beyond xi's constant:
				// drop it.
				ri[j] = Infinity
				rows.Add(i)
			} else if b < lo[j] {
				// Lower bound on xj below its negated constant: relax to the
				// strict bound at the constant.
				ri[j] = lo[j]
				cols.Add(j)
			}
		}
	}
	if rows.Len() == 0 && cols.Len() == 0 {
		return false
	}
	d.CloseRows(rows, cols)
	return true
}
