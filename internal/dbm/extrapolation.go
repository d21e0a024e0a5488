package dbm

// ExtraM applies the classical maximal-constant extrapolation (Extra_M from
// Behrmann et al., "Lower and Upper Bounds in Zone Based Abstractions of
// Timed Automata") and restores canonical form.
//
// max[c] is the largest constant clock c is ever compared against in guards,
// invariants, or properties; a negative value means the clock is never
// compared and all its bounds may be abstracted away. max[0] is ignored and
// treated as 0.
//
// Soundness: two zones that agree after ExtraM are bisimilar with respect to
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
// actually coarsened. This wrapper allocates its own scratch; the
// exploration hot path calls ExtraMTouched with pooled scratch instead.
func (d *DBM) ExtraM(max []int64) bool {
	return d.ExtraMTouched(max, NewTouched(d.dim), NewTouched(d.dim))
}

// ExtraMTouched is ExtraM with caller-provided scratch; see Extrapolate, which
// it calls with the bounds of max built on the spot. The exploration hot path
// builds them once (NewExtraM) and calls Extrapolate itself.
func (d *DBM) ExtraMTouched(max []int64, rows, cols *Touched) bool {
	return d.ExtraLUTouched(max, max, rows, cols)
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
// (TestNegativeConstantNotIdempotent); ExtraM and ExtraLU keep accepting one,
// for direct callers that apply them once.
type ExtraBounds struct {
	// hi[i] is (≤ U(xi)): an upper bound on xi, relative to any clock, beyond
	// it is dropped. The reference clock has Infinity here — row 0 holds no
	// upper bounds.
	hi []Bound
	// lo[j] is (< −L(xj)): a lower bound on xj below it is relaxed to it. The
	// reference clock's constant is 0.
	lo []Bound
}

// stackClocks is the dimension up to which the []int64 entry points build
// their ExtraBounds in a stack buffer; larger zones allocate one.
const stackClocks = 64

// NewExtraM returns the bounds of Extra_M for the given maximal constants
// (see ExtraM; max[0] is ignored).
func NewExtraM(max []int64) ExtraBounds { return NewExtraLU(max, max) }

// NewExtraLU returns the bounds of Extra_LU for the given lower and upper
// constants (see ExtraLU; index 0 of both is ignored).
func NewExtraLU(lower, upper []int64) ExtraBounds {
	dim := len(upper)
	return makeExtraBounds(heap.bounds(2 * dim)[:0], lower, upper, dim)
}

// makeExtraBounds appends the two vectors to buf, which it may outgrow.
func makeExtraBounds(buf []Bound, lower, upper []int64, dim int) ExtraBounds {
	buf = append(buf, Infinity)
	for _, u := range upper[1:dim] {
		buf = append(buf, LE(u))
	}
	buf = append(buf, LT(0))
	for _, l := range lower[1:dim] {
		buf = append(buf, LT(-l))
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

// Extrapolate abstracts every bound beyond x — the one loop behind ExtraM and
// ExtraLU — and restores canonical form. The rows of dropped upper bounds and
// the columns of relaxed lower bounds are collected into rows and cols
// (previous contents discarded), and canonical form is restored with
// CloseRows over just those — O((|rows|+|cols|)·n²) instead of the full O(n³)
// Floyd–Warshall, bit-identical to it by CloseRows' loosening argument. The
// zone must be canonical and nonempty on entry, as everywhere in the
// exploration loop. It reports whether any bound changed.
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

// ExtraLU applies lower/upper-bound extrapolation (Extra_LU from the same
// paper): upper-bound entries beyond U(x_i) are dropped, and lower bounds
// below -L(x_j) are relaxed to (< -L(x_j)). Because guards that bound a
// clock from below can only test it against L and guards from above against
// U, the abstraction preserves reachability while being coarser than ExtraM
// (which uses max(L,U) on both sides). Canonical form is restored.
//
// As with ExtraM, the upper bound of any clock c with a registered U(c) at
// least as large as the values of interest is preserved exactly, so WCRT
// suprema remain exact under the same horizon discipline. Like ExtraM it
// reports whether any bound changed, re-canonicalizes only then, and has a
// pooled-scratch variant ExtraLUTouched for the hot path.
func (d *DBM) ExtraLU(lower, upper []int64) bool {
	return d.ExtraLUTouched(lower, upper, NewTouched(d.dim), NewTouched(d.dim))
}

// ExtraLUTouched is ExtraLU with caller-provided scratch, the Extra_LU
// counterpart of ExtraMTouched.
func (d *DBM) ExtraLUTouched(lower, upper []int64, rows, cols *Touched) bool {
	var buf [2 * stackClocks]Bound
	x := makeExtraBounds(buf[:0], lower, upper, d.dim)
	return d.Extrapolate(&x, rows, cols)
}
