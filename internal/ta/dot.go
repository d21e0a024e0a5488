package ta

import (
	"fmt"
	"strings"
)

// DOT renders the network as a Graphviz digraph, one cluster per process —
// the textual equivalent of the paper's automata figures (Figs. 4–9).
// Locations show their invariants; edges show guard / synchronization /
// update, in that order, mirroring the UPPAAL display conventions.
func (n *Network) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n  edge [fontsize=9];\n", n.Name)
	for pi, p := range n.Procs {
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=%q;\n", pi, p.Name)
		for li, l := range p.Locations {
			var attrs []string
			label := l.Name
			if len(l.Invariant) > 0 {
				var inv []string
				for _, c := range l.Invariant {
					inv = append(inv, n.constraintString(c))
				}
				label += "\\n" + strings.Join(inv, " && ")
			}
			attrs = append(attrs, fmt.Sprintf("label=%q", label))
			switch l.Kind {
			case UrgentLoc:
				attrs = append(attrs, "shape=doublecircle")
			case Committed:
				attrs = append(attrs, "shape=doubleoctagon")
			}
			if l.Name == p.Locations[p.Init].Name && LocID(li) == p.Init {
				attrs = append(attrs, "penwidth=2")
			}
			fmt.Fprintf(&sb, "    p%dl%d [%s];\n", pi, li, strings.Join(attrs, ", "))
		}
		for _, e := range p.Edges {
			var parts []string
			if e.Guard != nil {
				parts = append(parts, e.Guard.String())
			}
			for _, c := range e.ClockGuard {
				parts = append(parts, n.constraintString(c))
			}
			if e.Sync.Dir != Tau {
				mark := "!"
				if e.Sync.Dir == Recv {
					mark = "?"
				}
				parts = append(parts, n.Chans[e.Sync.Chan].Name+mark)
			}
			for _, r := range e.Resets {
				parts = append(parts, fmt.Sprintf("%s=%d", n.Clocks[r.Clock].Name, r.Value))
			}
			for _, c := range e.Frees {
				parts = append(parts, fmt.Sprintf("free(%s)", n.Clocks[c].Name))
			}
			if e.Update != nil {
				parts = append(parts, e.Update.String())
			}
			fmt.Fprintf(&sb, "    p%dl%d -> p%dl%d [label=%q];\n",
				pi, e.Src, pi, e.Dst, strings.Join(parts, "\\n"))
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// constraintString renders a clock constraint with clock and variable names
// resolved, and #i for a clock or variable the network does not declare (as
// clockName). Lower bounds (reference clock on the left) are flipped to the
// conventional "x >= c" spelling, which both Graphviz readers and UPPAAL
// expect. Finalize's errors render constraints with it too.
func (n *Network) constraintString(c Constraint) string {
	clock := func(id ClockID) string { return n.clockName(int(id)) }
	if c.I == 0 {
		// 0 - x ≺ b  ⇔  x ≻ -b.
		if !c.VarBound {
			op := ">"
			if c.Bound.Weak() {
				op = ">="
			}
			return fmt.Sprintf("%s%s%d", clock(c.J), op, -c.Bound.Value())
		}
		op := ">"
		if c.Weak {
			op = ">="
		}
		return fmt.Sprintf("%s%s%s", clock(c.J), op, n.dynRHS(c, true))
	}
	lhs := clock(c.I)
	if c.J != 0 {
		lhs += "-" + clock(c.J)
	}
	if !c.VarBound {
		op := "<"
		if c.Bound.Weak() {
			op = "<="
		}
		return fmt.Sprintf("%s%s%d", lhs, op, c.Bound.Value())
	}
	op := "<"
	if c.Weak {
		op = "<="
	}
	return fmt.Sprintf("%s%s%s", lhs, op, n.dynRHS(c, false))
}

// dynRHS renders the dynamic bound Coef·var + Offset, negated for flipped
// lower bounds.
func (n *Network) dynRHS(c Constraint, negate bool) string {
	coef := c.Coef
	off := c.Offset
	if negate {
		coef, off = -coef, -off
	}
	rhs := fmt.Sprintf("#%d", c.Var)
	if int(c.Var) >= 0 && int(c.Var) < len(n.Vars) {
		rhs = n.Vars[c.Var].Name
	}
	if coef == -1 {
		rhs = "-" + rhs
	} else if coef != 1 {
		rhs = fmt.Sprintf("%d*%s", coef, rhs)
	}
	if off != 0 {
		rhs = fmt.Sprintf("%s%+d", rhs, off)
	}
	return rhs
}
