package dbm

// UpperBounds is a conjunction of single-clock upper bounds xi ≺ ci — the
// shape of every location invariant (ta.Finalize admits no other) — kept as
// the tightest bound per clock plus the list of bounded clocks, so that
// DelayUnder walks k entries however many invariants named the same clock.
//
// Like Touched it is reusable scratch: Reset costs O(clocks bounded), Lower
// is O(1), nothing allocates after construction; the successor engine keeps
// one per expanding goroutine (in its succCtx). NOT safe for concurrent use.
type UpperBounds struct {
	b    []Bound // per clock; Infinity = unbounded
	list []int32 // the clocks with a finite entry in b, insertion order
}

// NewUpperBounds returns an empty conjunction for DBMs of the given
// dimension.
func NewUpperBounds(dim int) *UpperBounds { return heap.UpperBounds(dim) }

// UpperBounds returns an empty conjunction for DBMs of the given dimension,
// carved from s under Carve's rule: it lives as long as the set.
func (s *Slabs) UpperBounds(dim int) *UpperBounds {
	if dim < 1 {
		panic("dbm: upper-bound dimension must include the reference clock")
	}
	u := Carve[UpperBounds](s)
	u.b, u.list = s.bounds(dim), CarveSlice[int32](s, dim)[:0]
	for i := range u.b {
		u.b[i] = Infinity
	}
	return u
}

// Reset drops every bound, keeping the storage.
func (u *UpperBounds) Reset() {
	for _, c := range u.list {
		u.b[c] = Infinity
	}
	u.list = u.list[:0]
}

// Lower conjoins xc ≺ b for a clock c ≥ 1: the entry becomes the minimum of b
// and what was recorded. Infinity is the absent bound and records nothing.
func (u *UpperBounds) Lower(c int, b Bound) {
	old := u.b[c]
	if b >= old {
		return
	}
	if old == Infinity {
		u.list = append(u.list, int32(c))
	}
	u.b[c] = b
}

// DelayUnder intersects the zone with the upper bounds of ub — after letting
// time pass when delay is set, i.e. it computes Up(Z) ∧ ub in one step — and
// restores canonical form in O(k·n + n²) for k bounded clocks, where a chain
// of Constrain pays O(n²) per bound that bites. It reports whether the result
// is nonempty; an empty result is marked on the diagonal (IsEmpty reports
// it) and is otherwise unspecified. The zone must be canonical and nonempty
// on entry.
//
// Every added edge i → 0 (weight ci) ends in the reference clock, so a simple
// cycle or a shortest path uses at most one of them. Hence the result is
// empty iff some D(0,i) + ci < (≤, 0); otherwise, with
//
//	u(p) = min(D(p,0) — or ∞ when delaying — , min_i D(p,i) + ci),
//
// the closed matrix is D'(p,0) = u(p), D'(p,q) = min(D(p,q), u(p) + D(0,q)),
// and a row whose u(p) did not drop below the old D(p,0) keeps every other
// entry (D(p,q) ≤ D(p,0) + D(0,q) already held). Row 0 never changes. Without
// delay, when no ci is below D(i,0) nothing changes at all — the O(k) exit a
// transition into already-satisfied invariants takes.
//
// One call serves a fired transition's two invariant applications (before
// the delay, to decide emptiness, and after it): upper bounds are closed
// under time predecessors, so Up(Z ∧ I) ∧ I = Up(Z) ∧ I, and both are empty
// exactly when Z ∧ I is, D(0,i) being untouched by Up. Canonical forms are
// unique, so the result is bit-identical to Up followed by one Constrain per
// bound (FuzzDelayUnder pins it against that chain and against Close).
func (d *DBM) DelayUnder(ub *UpperBounds, delay bool) bool {
	n := d.dim
	m := d.m
	r0 := m[:n]
	for _, i := range ub.list {
		if s := Add(r0[i], ub.b[i]); s < LEZero {
			m[int(i)*n+int(i)] = s // mark empty on the diagonal
			return false
		}
	}
	if !delay {
		bites := false
		for _, i := range ub.list {
			if ub.b[i] < m[int(i)*n] {
				bites = true
				break
			}
		}
		if !bites {
			return true
		}
	}
	for p := 1; p < n; p++ {
		rp := m[p*n : p*n+n]
		u := Infinity
		for _, i := range ub.list {
			if dpi := rp[i]; dpi != Infinity {
				if v := addFin(dpi, ub.b[i]); v < u {
					u = v
				}
			}
		}
		if u >= rp[0] {
			if delay {
				rp[0] = u
			}
			continue
		}
		rp[0] = u
		for q, r0q := range r0 {
			if r0q == Infinity {
				continue
			}
			if v := addFin(u, r0q); v < rp[q] {
				rp[q] = v
			}
		}
	}
	return true
}
