package ta

import (
	"fmt"
	"strings"
)

// Expr is an integer expression over the network's variable valuation.
type Expr interface {
	Eval(v []int64) int64
	String() string
}

// Guard is a boolean predicate over the network's variable valuation. A nil
// Guard everywhere means "true".
type Guard interface {
	Eval(v []int64) bool
	String() string
}

// Update mutates the network's variable valuation when an edge fires. A nil
// Update means "skip".
type Update interface {
	Apply(v []int64)
	String() string
}

// --- Expressions ---

type constExpr int64

func (c constExpr) Eval([]int64) int64 { return int64(c) }
func (c constExpr) String() string     { return fmt.Sprintf("%d", int64(c)) }

// C returns the constant expression k.
func C(k int64) Expr { return constExpr(k) }

type varExpr IntVar

func (e varExpr) Eval(v []int64) int64 { return v[e.ID] }
func (e varExpr) String() string       { return e.Name }

// V returns the expression reading variable iv.
func V(iv IntVar) Expr { return varExpr(iv) }

type binExpr struct {
	op   byte
	l, r Expr
}

func (e binExpr) Eval(v []int64) int64 {
	a, b := e.l.Eval(v), e.r.Eval(v)
	switch e.op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	}
	panic("ta: unknown binary operator")
}

func (e binExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.l, e.op, e.r)
}

// Plus returns l + r.
func Plus(l, r Expr) Expr { return binExpr{'+', l, r} }

// Minus returns l - r.
func Minus(l, r Expr) Expr { return binExpr{'-', l, r} }

// Times returns l * r.
func Times(l, r Expr) Expr { return binExpr{'*', l, r} }

type iteExpr struct {
	cond        Guard
	then, else_ Expr
}

func (e iteExpr) Eval(v []int64) int64 {
	if e.cond.Eval(v) {
		return e.then.Eval(v)
	}
	return e.else_.Eval(v)
}

func (e iteExpr) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", e.cond, e.then, e.else_)
}

// Ite returns the conditional expression cond ? then : els, as used by the
// paper's measuring automaton (m = m<0 ? m : m-1).
func Ite(cond Guard, then, els Expr) Expr { return iteExpr{cond, then, els} }

// --- Guards ---

// CmpOp is a comparison operator for data guards.
type CmpOp int

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "=="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

func (o CmpOp) eval(a, b int64) bool {
	switch o {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	panic("ta: unknown comparison operator")
}

type cmpGuard struct {
	l  Expr
	op CmpOp
	r  Expr
}

func (g cmpGuard) Eval(v []int64) bool { return g.op.eval(g.l.Eval(v), g.r.Eval(v)) }
func (g cmpGuard) String() string      { return fmt.Sprintf("%s %s %s", g.l, g.op, g.r) }

// Cmp returns the guard l op r. A variable compared against a constant — the
// shape of nearly every data guard, and the only one the .ta parser and the
// architecture compiler emit per atom — comes back as the flat form VarCmp
// builds.
func Cmp(l Expr, op CmpOp, r Expr) Guard {
	if v, ok := l.(varExpr); ok {
		if k, ok := r.(constExpr); ok {
			return VarCmp(IntVar(v), op, int64(k))
		}
	}
	return cmpGuard{l, op, r}
}

// varCmpGuard is cmpGuard{V(iv), op, C(k)} without the two operand
// interfaces: the successor engine evaluates dozens of these per popped state
// (observer and dispatch guards), and this form costs one dynamic call where
// the tree costs three.
type varCmpGuard struct {
	iv IntVar
	op CmpOp
	k  int64
}

func (g varCmpGuard) Eval(v []int64) bool { return g.op.eval(v[g.iv.ID], g.k) }
func (g varCmpGuard) String() string      { return fmt.Sprintf("%s %s %d", g.iv.Name, g.op, g.k) }

// VarCmp returns the common guard iv op k.
func VarCmp(iv IntVar, op CmpOp, k int64) Guard { return varCmpGuard{iv, op, k} }

type andGuard []Guard

func (g andGuard) Eval(v []int64) bool {
	for _, c := range g {
		if c != nil && !c.Eval(v) {
			return false
		}
	}
	return true
}

func (g andGuard) String() string {
	parts := make([]string, 0, len(g))
	for _, c := range g {
		if c != nil {
			parts = append(parts, c.String())
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " && ")
}

// And conjoins guards; nil members are treated as true.
func And(gs ...Guard) Guard { return andGuard(gs) }

// EvalGuard evaluates g on v, treating nil as true.
func EvalGuard(g Guard, v []int64) bool {
	return g == nil || g.Eval(v)
}

// --- Updates ---

type setUpdate struct {
	dst IntVar
	e   Expr
}

func (u setUpdate) Apply(v []int64) { v[u.dst.ID] = u.e.Eval(v) }
func (u setUpdate) String() string  { return fmt.Sprintf("%s = %s", u.dst.Name, u.e) }

// Set returns the update iv = e.
func Set(iv IntVar, e Expr) Update { return setUpdate{iv, e} }

// SetConst returns the update iv = k.
func SetConst(iv IntVar, k int64) Update { return setUpdate{iv, C(k)} }

type incUpdate struct {
	dst   IntVar
	delta int64
}

func (u incUpdate) Apply(v []int64) { v[u.dst.ID] += u.delta }
func (u incUpdate) String() string {
	if u.delta == 1 {
		return u.dst.Name + "++"
	}
	if u.delta == -1 {
		return u.dst.Name + "--"
	}
	return fmt.Sprintf("%s += %d", u.dst.Name, u.delta)
}

// Inc returns the update iv += delta.
func Inc(iv IntVar, delta int64) Update { return incUpdate{iv, delta} }

type seqUpdate []Update

func (u seqUpdate) Apply(v []int64) {
	for _, s := range u {
		if s != nil {
			s.Apply(v)
		}
	}
}

func (u seqUpdate) String() string {
	parts := make([]string, 0, len(u))
	for _, s := range u {
		if s != nil {
			parts = append(parts, s.String())
		}
	}
	return strings.Join(parts, ", ")
}

// Do sequences several updates; nil members are skipped.
func Do(us ...Update) Update { return seqUpdate(us) }

// ApplyUpdate applies u to v, treating nil as skip.
func ApplyUpdate(u Update, v []int64) {
	if u != nil {
		u.Apply(v)
	}
}
