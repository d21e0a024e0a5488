package dbm

import (
	"fmt"
	"strings"
)

// DBM is a difference bound matrix over dim clocks, where clock 0 is the
// reference clock (always exactly zero). Entry (i, j) bounds xi - xj.
//
// Most operations require the DBM to be in canonical (closed) form, i.e. all
// bounds are the tightest implied by the constraint graph. Constructors and
// all mutating methods documented below preserve canonical form unless stated
// otherwise.
type DBM struct {
	dim int
	m   []Bound // row-major, len dim*dim
}

// New returns the zone in which every clock equals zero (the initial zone of
// a timed automaton). The result is canonical.
func New(dim int) *DBM {
	if dim < 1 {
		panic("dbm: dimension must include the reference clock")
	}
	d := &DBM{dim: dim, m: heap.bounds(dim * dim)}
	for i := range d.m {
		d.m[i] = LEZero
	}
	return d
}

// Universe returns the zone containing every valuation with all clocks ≥ 0.
// The result is canonical.
func Universe(dim int) *DBM {
	d := New(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			switch {
			case i == j:
				d.set(i, j, LEZero)
			case i == 0:
				d.set(i, j, LEZero) // 0 - xj ≤ 0, i.e. xj ≥ 0
			default:
				d.set(i, j, Infinity)
			}
		}
	}
	return d
}

// Dim returns the number of clocks including the reference clock.
func (d *DBM) Dim() int { return d.dim }

// At returns the bound on xi - xj.
func (d *DBM) At(i, j int) Bound { return d.m[i*d.dim+j] }

func (d *DBM) set(i, j int, b Bound) { d.m[i*d.dim+j] = b }

// Copy returns a deep copy of the DBM.
func (d *DBM) Copy() *DBM {
	c := &DBM{dim: d.dim, m: heap.bounds(len(d.m))}
	copy(c.m, d.m)
	return c
}

// CopyFrom overwrites d with the contents of src, which must have the same
// dimension. This is the in-place counterpart of Copy used with recycled
// matrices.
func (d *DBM) CopyFrom(src *DBM) {
	if d.dim != src.dim {
		panic("dbm: dimension mismatch in CopyFrom")
	}
	copy(d.m, src.m)
}

// SetInit overwrites d with the initial zone in which every clock equals
// zero — the in-place counterpart of New for recycled matrices.
func (d *DBM) SetInit() {
	for i := range d.m {
		d.m[i] = LEZero
	}
}

// IsEmpty reports whether the zone contains no valuation. On a canonical DBM
// emptiness shows up as a diagonal entry below (≤, 0).
func (d *DBM) IsEmpty() bool {
	for i := 0; i < d.dim; i++ {
		if d.At(i, i) < LEZero {
			return true
		}
	}
	return false
}

// Close recomputes the canonical form with Floyd–Warshall shortest paths.
// It returns false if the zone turned out to be empty (in which case the
// contents are unspecified). Rows are sliced out once per pivot so the inner
// loop runs without index arithmetic or bounds checks, and the path sum is
// inlined with only the rkj infinity test (dik is already known finite) —
// Add's symmetric check costs measurably on this innermost loop.
func (d *DBM) Close() bool {
	n := d.dim
	m := d.m
	for k := 0; k < n; k++ {
		rk := m[k*n : k*n+n]
		for i := 0; i < n; i++ {
			ri := m[i*n : i*n+n]
			dik := ri[k]
			if dik == Infinity {
				continue
			}
			for j, rkj := range rk {
				if rkj == Infinity {
					continue
				}
				if v := addFin(dik, rkj); v < ri[j] {
					ri[j] = v
				}
			}
		}
		if rk[k] < LEZero {
			return false
		}
	}
	return !d.IsEmpty()
}

// CloseRows restores canonical form after entries of a canonical nonempty
// DBM were LOOSENED, given that every modified entry lies in a row recorded
// in rows or a column recorded in cols (extrapolation records the row of
// every dropped upper bound and the column of every relaxed lower bound).
//
// Loosening needs a different algorithm than tightening: a loosened entry can
// be re-tightened by a path through clocks that were never touched (e.g. a
// dropped x1-x3 bound re-derived from kept x1-x2 and x2-x3 bounds;
// TestCloseRowsRederivesDroppedBound pins the case), so pivoting only over
// the touched clocks is not exact here. Instead this runs ALL Floyd–Warshall
// pivots but restricts the inner update to the touched rows and columns,
// which is sufficient because entries outside them kept their old
// shortest-path values: weights only increased, so no untouched entry can
// tighten, and each keeps its own direct edge. The cost is
// O((|rows|+|cols|)·n²).
//
// Above a density threshold (touched rows plus columns ≥ 3/4 of the
// dimension) it falls back to the full Close. The return value mirrors
// Close; under the stated precondition (canonical nonempty input, entries
// only loosened) the zone cannot become empty, so the incremental path
// reports true without scanning the diagonal, and the result is bit-identical
// to a full Close.
//
// The sparse path pays. Ablated (Extrapolate calling Close instead;
// alternating pairs of the benchmark's workloads on a 2-core host), fischer
// was slower in 5 of 5 pairs, ≈ +7% at the median; table1 stayed inside its
// spread over 5 pairs, and archchain was mixed over 3.
func (d *DBM) CloseRows(rows, cols *Touched) bool {
	n := d.dim
	if (rows.Len()+cols.Len())*4 >= n*3 {
		return d.Close()
	}
	m := d.m
	for k := 0; k < n; k++ {
		rk := m[k*n : k*n+n]
		for _, i32 := range rows.list {
			i := int(i32)
			ri := m[i*n : i*n+n]
			dik := ri[k]
			if dik == Infinity {
				continue
			}
			for j, rkj := range rk {
				if rkj == Infinity {
					continue
				}
				if v := addFin(dik, rkj); v < ri[j] {
					ri[j] = v
				}
			}
		}
		if len(cols.list) == 0 {
			continue
		}
		// The touched columns are updated row by row, not column by column:
		// one pass over the matrix per pivot with the few column indices in
		// the inner loop, instead of a stride-n walk down every column. The
		// order within a pivot is free — row k and column k do not change
		// under pivot k (the diagonal is (≤, 0)), so every update reads the
		// same two operands either way.
		for i := 0; i < n; i++ {
			ri := m[i*n : i*n+n]
			dik := ri[k]
			if dik == Infinity {
				continue
			}
			for _, j := range cols.list {
				if dkj := rk[j]; dkj != Infinity {
					if v := addFin(dik, dkj); v < ri[j] {
						ri[j] = v
					}
				}
			}
		}
	}
	return true
}

// Constrain intersects the zone with the constraint xi - xj ≺ c given as a
// Bound, restoring canonical form. It reports whether the result is nonempty.
//
// The zone must be canonical and nonempty on entry — what every zone of the
// exploration loop is, and what a chain of Constrain calls that stops at the
// first false keeps. Under that precondition the reverse-path test below
// decides emptiness on its own (a negative cycle has to use the new edge), so
// neither the no-op path nor the update scans the diagonal. A caller holding
// a possibly-empty matrix asks IsEmpty.
func (d *DBM) Constrain(i, j int, b Bound) bool {
	if b >= d.At(i, j) {
		return true
	}
	// The new bound contradicts the reverse path: emptiness check first.
	if Add(d.At(j, i), b) < LEZero {
		d.set(i, i, Add(d.At(j, i), b)) // mark empty on the diagonal
		return false
	}
	d.set(i, j, b)
	// Tighten all paths through the updated edge i -> j.
	n := d.dim
	m := d.m
	rj := m[j*n : j*n+n]
	for p := 0; p < n; p++ {
		rp := m[p*n : p*n+n]
		dpi := rp[i]
		if dpi == Infinity {
			continue
		}
		via := Add(dpi, b)
		for q, rjq := range rj {
			if rjq == Infinity {
				continue
			}
			if v := addFin(via, rjq); v < rp[q] {
				rp[q] = v
			}
		}
	}
	return true
}

// Up removes all upper bounds on clocks, computing the set of time successors
// (delay). Canonical form is preserved.
func (d *DBM) Up() {
	for i := 1; i < d.dim; i++ {
		d.set(i, 0, Infinity)
	}
}

// Free removes all constraints on clock c, making its value arbitrary
// (nonnegative). Canonical form is preserved.
func (d *DBM) Free(c int) {
	for i := 0; i < d.dim; i++ {
		if i != c {
			d.set(c, i, Infinity)
			d.set(i, c, d.At(i, 0))
		}
	}
	d.set(c, 0, Infinity)
	d.set(0, c, LEZero)
}

// Reset sets clock c to the constant v ≥ 0. Canonical form is preserved.
func (d *DBM) Reset(c int, v int64) {
	le := LE(v)
	nle := LE(-v)
	for i := 0; i < d.dim; i++ {
		if i == c {
			continue
		}
		d.set(c, i, Add(le, d.At(0, i)))
		d.set(i, c, Add(d.At(i, 0), nle))
	}
	d.set(c, c, LEZero)
}

// SubsetEq reports whether every valuation of d is contained in o. Both DBMs
// must be canonical and of equal dimension.
func (d *DBM) SubsetEq(o *DBM) bool {
	for i := range d.m {
		if d.m[i] > o.m[i] {
			return false
		}
	}
	return true
}

// Eq reports whether two canonical DBMs denote the same zone.
func (d *DBM) Eq(o *DBM) bool {
	if d.dim != o.dim {
		return false
	}
	for i := range d.m {
		if d.m[i] != o.m[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the concrete valuation v (indexed by clock, with
// v[0] ignored and treated as 0) satisfies every constraint of the zone.
func (d *DBM) Contains(v []int64) bool {
	if len(v) < d.dim {
		panic("dbm: valuation too short")
	}
	val := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return v[i]
	}
	for i := 0; i < d.dim; i++ {
		for j := 0; j < d.dim; j++ {
			b := d.At(i, j)
			if b == Infinity {
				continue
			}
			diff := val(i) - val(j)
			if b.Weak() {
				if diff > b.Value() {
					return false
				}
			} else if diff >= b.Value() {
				return false
			}
		}
	}
	return true
}

// Sup returns the upper bound of clock c in the zone, i.e. the bound on
// xc - x0. The result may be Infinity.
func (d *DBM) Sup(c int) Bound { return d.At(c, 0) }

// Inf returns the lower bound of clock c as a nonnegative bound: if the zone
// implies xc ≥ v (resp. > v) the result is (≤ v) (resp. (< v)) after
// negation of the stored x0 - xc bound.
func (d *DBM) Inf(c int) Bound {
	b := d.At(0, c)
	if b == Infinity {
		return Infinity
	}
	return MakeBound(-b.Value(), b.Weak())
}

// String renders the DBM constraint by constraint for debugging.
func (d *DBM) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	first := true
	for i := 0; i < d.dim; i++ {
		for j := 0; j < d.dim; j++ {
			if i == j || d.At(i, j) == Infinity {
				continue
			}
			if !first {
				sb.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&sb, "x%d-x%d%s", i, j, d.At(i, j))
		}
	}
	sb.WriteString("}")
	return sb.String()
}
