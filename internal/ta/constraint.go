package ta

import "repro/internal/dbm"

// Constraint is a single clock constraint xI - xJ ≺ c in DBM form. Absolute
// constraints on one clock use the reference clock (ID 0) as the other side.
//
// The bound is either the static Bound, or — when VarBound is set — computed
// from the current variable valuation as Coef·vars[Var] + Offset with
// strictness Weak. Variable bounds are what the paper's preemptive scheduler
// template (Fig. 5) needs: the invariant x ≤ D and guard x == D where D
// accumulates preemption delay at run time.
type Constraint struct {
	I, J  ClockID
	Bound dbm.Bound

	VarBound bool
	Var      VarID
	Coef     int64
	Offset   int64
	Weak     bool
}

// Resolve returns the effective bound under the given variable valuation.
func (c Constraint) Resolve(vars []int64) dbm.Bound {
	if !c.VarBound {
		return c.Bound
	}
	return dbm.MakeBound(c.Coef*vars[c.Var]+c.Offset, c.Weak)
}

// CLE returns the constraint x ≤ k.
func CLE(x Clock, k int64) Constraint { return Constraint{I: x.ID, J: 0, Bound: dbm.LE(k)} }

// CLT returns the constraint x < k.
func CLT(x Clock, k int64) Constraint { return Constraint{I: x.ID, J: 0, Bound: dbm.LT(k)} }

// CGE returns the constraint x ≥ k.
func CGE(x Clock, k int64) Constraint { return Constraint{I: 0, J: x.ID, Bound: dbm.LE(-k)} }

// CGT returns the constraint x > k.
func CGT(x Clock, k int64) Constraint { return Constraint{I: 0, J: x.ID, Bound: dbm.LT(-k)} }

// CEq returns the pair of constraints pinning x == k.
func CEq(x Clock, k int64) []Constraint {
	return []Constraint{CLE(x, k), CGE(x, k)}
}

// DiffLE returns the constraint x - y ≤ k.
func DiffLE(x, y Clock, k int64) Constraint { return Constraint{I: x.ID, J: y.ID, Bound: dbm.LE(k)} }

// DiffLT returns the constraint x - y < k.
func DiffLT(x, y Clock, k int64) Constraint { return Constraint{I: x.ID, J: y.ID, Bound: dbm.LT(k)} }

// CLEVar returns the dynamic constraint x ≤ v (bound read from variable v).
func CLEVar(x Clock, v IntVar) Constraint {
	return Constraint{I: x.ID, J: 0, VarBound: true, Var: v.ID, Coef: 1, Weak: true}
}

// CGEVar returns the dynamic constraint x ≥ v.
func CGEVar(x Clock, v IntVar) Constraint {
	return Constraint{I: 0, J: x.ID, VarBound: true, Var: v.ID, Coef: -1, Weak: true}
}

// CEqVar returns the pair of dynamic constraints pinning x == v.
func CEqVar(x Clock, v IntVar) []Constraint {
	return []Constraint{CLEVar(x, v), CGEVar(x, v)}
}

// ApplyConstraints intersects zone z with every constraint in cs under the
// variable valuation vars, reporting whether the zone stays nonempty. Each
// constraint pays one O(n²) single-edge closure (dbm.Constrain). z must be
// canonical and nonempty. The engine tightens guards this way; invariants,
// all single-clock upper bounds, go through dbm.DelayUnder as one batch.
func ApplyConstraints(z *dbm.DBM, cs []Constraint, vars []int64) bool {
	for _, c := range cs {
		if !z.Constrain(int(c.I), int(c.J), c.Resolve(vars)) {
			return false
		}
	}
	return true
}

// ConstraintsFeasible reports whether no single constraint in cs alone
// contradicts the canonical zone z: constraint xI - xJ ≺ b empties z exactly
// when b plus the zone's reverse bound on xJ - xI drops below (≤ 0). This is
// a necessary condition for the conjunction to intersect z, checked in
// O(len(cs)) without copying or mutating the zone — the successor engine
// uses it to reject clock-disabled transitions before paying for a matrix
// copy. Joint satisfiability still requires ApplyConstraints on a copy.
func ConstraintsFeasible(z *dbm.DBM, cs []Constraint, vars []int64) bool {
	for _, c := range cs {
		b := c.Resolve(vars)
		if b == dbm.Infinity {
			continue
		}
		if dbm.Add(z.At(int(c.J), int(c.I)), b) < dbm.LEZero {
			return false
		}
	}
	return true
}
