// Package dbm implements difference bound matrices (DBMs), the canonical
// symbolic representation of clock zones used by UPPAAL-style timed-automata
// model checkers.
//
// A zone is a conjunction of constraints of the form xi - xj ≺ c with
// ≺ ∈ {<, ≤} over a set of clocks x1..xn plus the reference clock x0 which is
// always exactly 0. A DBM stores one bound per ordered clock pair in a dense
// (n+1)×(n+1) matrix. All algorithms follow the classical presentation in
// Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools".
//
// # Restoring canonical form
//
// Inclusion checks and the passed store need every zone closed (each bound
// the tightest the others imply). There are exactly four ways back to that
// form, and each has traffic:
//
//   - Constrain, after one bound was tightened: the single-edge O(n²) update.
//     Every clock guard is a chain of these (ta.ApplyConstraints); there is
//     no batched variant for arbitrary constraints.
//   - DelayUnder, for a set of single-clock upper bounds — the invariants of
//     a whole location vector — with or without the delay before them: one
//     O(k·n + n²) pass, exact because every added edge ends in clock 0. Once
//     per fired transition and once for the initial state.
//   - CloseRows, after extrapolation loosened the rows and columns it
//     recorded in a Touched: all pivots, updates restricted to those. Once
//     per admitted state whose zone reaches beyond the bounds (Extrapolate),
//     never for a subsumed one.
//   - Close, the full O(n³) Floyd–Warshall: CloseRows' dense fallback, and
//     the reference the tests compare the other three against.
//
// Fork census: the data-dependent forks on this path and the workloads of
// BENCHMARK.json measured on each side (scripts/traffic.sh prints the table;
// core's succCtx comment has the successor engine's rows).
//
//   - Extrapolate, once per admission (the passed store of internal/core
//     decides subsumption on the raw zone and widens only what it admits; it
//     ran once per fired transition before that, see ExtraBounds for why the
//     two orders decide alike). Per sweep, calls = unchanged (a read-only
//     scan) + changed (CloseRows): fischer 46,361 = 7,881 + 38,480, with
//     84,825 successors subsumed before it; archchain 77,613 = 76,641 + 972,
//     30,060 subsumed; table1 changes 99.9% of its admissions (23% of its
//     successors subsumed), variants a third, serve_cold six in seven.
//   - CloseRows: sparse path on all five; dense fallback to Close on table1,
//     variants and serve_cold, never on archchain and fischer.
//   - DelayUnder: with delay on all five; without delay (an urgent or
//     committed location in the target vector) on all but fischer, and then
//     always through the already-satisfied exit. A row tightened below its
//     pre-delay bound and an emptied zone on none: a zone that met its guards
//     met the target invariants too, everywhere in the benchmark. Both stay,
//     they are what an invariant that bites means (a target tighter than the
//     guard, a variable deadline), pinned by TestDelayUnder, FuzzDelayUnder
//     and core's TestTargetInvariantDisablesTransition.
//   - EncodeCompact, once per admitted state, and DecodeInto, once per popped
//     one: 16-bit on all five; 32-bit on table1 and serve_cold; 64-bit on
//     none — kept, it is input-range handling (model constants beyond 2³⁰),
//     pinned by compact_test.go.
//   - Omitted rows (Compact: a clock nothing bounds from above is a mask bit,
//     not a row), per stored zone: archchain 8.69 of 22 rows (674,376 over
//     the sweep's 77,613 zones, 39.5% of every payload's bounds), table1 1.40
//     of 11.8, serve_cold 1.25 of 12, fischer 0.63 of 6, variants 0.62 of
//     3.9. EncodeCompact, DecodeInto and ContainsDBM meet omitted rows on all
//     five; SubsetEqDBM on table1, archchain and variants (the other two
//     prune nothing), and it finds a finite bound under one on table1 only,
//     54 times in 5.2 M — the signature rejects such a pair first.
//
// # Zone memory
//
// Matrices and packed payloads of a sweep are carved from 256 KiB slabs
// (slab.go; Slabs is one owner's set). On unix a slab is an anonymous mapping
// and not Go memory: the collector neither scans it nor counts it towards the
// heap goal, so a stored zone costs its packed bytes in resident memory once,
// not once more in garbage allowed before the next cycle. The price is the
// ownership rule's sharp edge. A carved slice keeps nothing alive — the set
// does, and after Release the process-wide cache, which holds exactly the set
// released last. A value that aliases a slab past its set's Release reads
// whatever the next owner wrote; past the Release after that the slab is
// unmapped and the read faults. Values that outlive a set are heap copies
// (DBM.Copy, the nil set). SlabStats is the account of this memory;
// runtime.MemStats and heap profiles no longer contain it. Race builds, and
// platforms without Mmap, keep slabs on the Go heap (slab_heap.go).
package dbm

import (
	"fmt"
	"math"
)

// Bound is a single difference bound (c, ≺) encoded in one int64 so that the
// natural integer order coincides with bound tightness:
//
//	encode(c, <)  = 2c
//	encode(c, ≤)  = 2c + 1
//
// Hence (<, c) is strictly tighter than (≤, c) which is tighter than (<, c+1),
// and comparing encoded values compares bounds. Infinity is a distinguished
// maximal value.
type Bound int64

// Infinity is the absent constraint xi - xj < ∞.
const Infinity Bound = math.MaxInt64

// LEZero is the bound (≤, 0), the diagonal value of every canonical DBM; a
// diagonal entry below it signals emptiness.
const LEZero Bound = 1

// MakeBound encodes the bound (value ≺) where weak selects ≤ (true) or < (false).
func MakeBound(value int64, weak bool) Bound {
	if weak {
		return Bound(value<<1 | 1)
	}
	return Bound(value << 1)
}

// LE returns the non-strict bound (≤, value).
func LE(value int64) Bound { return MakeBound(value, true) }

// LT returns the strict bound (<, value).
func LT(value int64) Bound { return MakeBound(value, false) }

// Value returns the numeric constant of the bound. It must not be called on
// Infinity.
func (b Bound) Value() int64 { return int64(b) >> 1 }

// Weak reports whether the bound is non-strict (≤).
func (b Bound) Weak() bool { return b != Infinity && b&1 == 1 }

// Add combines two bounds along a path: (c1,≺1) + (c2,≺2) = (c1+c2, ≺) where
// ≺ is ≤ only if both inputs are ≤. Adding anything to Infinity is Infinity.
func Add(a, b Bound) Bound {
	if a == Infinity || b == Infinity {
		return Infinity
	}
	// Sum the payloads and keep the conjunction of the weak bits.
	return a + b - ((a | b) & 1)
}

// addFin is Add for operands already known finite: the closure inner loops
// hoist the infinity tests out of the hot path, and the encoding-dependent
// sum lives here, next to Add, rather than copied into each loop.
func addFin(a, b Bound) Bound { return a + b - ((a | b) & 1) }

// String renders the bound as "<c", "<=c" or "inf".
func (b Bound) String() string {
	if b == Infinity {
		return "inf"
	}
	if b.Weak() {
		return fmt.Sprintf("<=%d", b.Value())
	}
	return fmt.Sprintf("<%d", b.Value())
}
